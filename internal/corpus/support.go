package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// SupportConfig controls the customer-support ticket generator — the
// triage/routing workload. Tickets carry a priority, a product, and a
// category; the scenario's filter target is urgency, and its routing
// target is the category field.
type SupportConfig struct {
	// NumTickets is the corpus size.
	NumTickets int
	// UrgentRate is the fraction of tickets that are genuinely urgent
	// (priority P1/P2, outage-grade language).
	UrgentRate float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultSupport returns the support-triage workload used by examples and
// benches: 200 tickets, 30% urgent.
func DefaultSupport() SupportConfig {
	return SupportConfig{NumTickets: 200, UrgentRate: 0.3, Seed: 17}
}

// UrgentLabel is the ground-truth boolean label on urgent tickets — what
// the triage filter predicate ("The ticket is urgent ...") matches.
const UrgentLabel = "urgent"

var supportProducts = []string{
	"Orion Gateway", "Lumen Dashboard", "Atlas Sync", "Quill Editor",
	"Beacon Alerts", "Vault Storage", "Pulse Analytics", "Relay Webhooks",
}

var supportChannels = []string{"email", "chat", "phone", "web form"}

var supportCustomers = []string{
	"Dana Whitfield", "Marcus Oyelaran", "Priya Raghavan", "Tomás Herrera",
	"Yuki Tanaka", "Leila Haddad", "Grace Okafor", "Sven Lindqvist",
	"Noor Al-Amin", "Ivan Petrov", "Maya Goldberg", "Chen Wei",
}

// supportCategories drive the routing workload: each category has its own
// complaint vocabulary, so category extraction is answerable from text.
var supportCategories = []struct {
	name    string
	subject string
	body    string
}{
	{"billing", "Unexpected charge on latest invoice",
		"Our latest invoice shows a charge we cannot reconcile with our plan. The billing page lists a line item that does not match our subscription tier, and the total is higher than last month."},
	{"authentication", "Users unable to sign in",
		"Several of our users report failed sign-in attempts. Password resets do not arrive, and single sign-on redirects land on an error page instead of the application."},
	{"performance", "Dashboard loading extremely slowly",
		"Page loads that used to take a second now take close to a minute. The slowdown started recently and affects every view, not just the heavy reports."},
	{"data-export", "Scheduled export producing empty files",
		"Our nightly export job completes without errors but the delivered files are empty. Manual exports from the UI produce the expected rows, so the scheduler path seems broken."},
	{"integration", "Webhook deliveries failing with timeouts",
		"Webhook calls to our endpoint began timing out. Our endpoint logs show no incoming requests, and the delivery dashboard lists repeated retries followed by permanent failures."},
	{"mobile", "App crashes on startup after update",
		"Since the latest app update, the mobile client crashes immediately on launch. Reinstalling does not help, and the crash occurs on multiple device models."},
}

var urgentPhrases = []string{
	"Production is completely down and all of our users are blocked",
	"This is a complete outage affecting every customer-facing workflow",
	"We are losing transactions every minute this remains broken",
	"Our launch is tonight and this blocks the entire release",
}

var routinePhrases = []string{
	"This is not blocking day-to-day work but we would like a fix soon",
	"We found a workaround for now, sharing in case it helps diagnosis",
	"No immediate impact, logging it so it is tracked",
	"Whenever your team has a chance to look, we would appreciate an update",
}

// NewSupportGenerator returns the streaming support-ticket generator:
// ticket i is derived from a per-index RNG (constant memory at any
// NumTickets), and exactly round(NumTickets*UrgentRate) tickets are
// urgent, scattered deterministically across the corpus.
func NewSupportGenerator(cfg SupportConfig) Generator {
	urgent := int(float64(cfg.NumTickets)*cfg.UrgentRate + 0.5)
	sc := newScatter(cfg.Seed, cfg.NumTickets)
	return NewIndexGenerator(DomainSupport, cfg.NumTickets, cfg.Seed, func(rng *rand.Rand, i int) *Doc {
		return genTicket(rng, i, sc.pos(i) < urgent)
	})
}

// GenerateSupport materializes the support corpus — byte-identical to
// draining NewSupportGenerator(cfg).
func GenerateSupport(cfg SupportConfig) []*Doc {
	docs, _ := Collect(NewSupportGenerator(cfg)) // index generators never error
	return docs
}

func genTicket(rng *rand.Rand, idx int, urgent bool) *Doc {
	cat := supportCategories[rng.Intn(len(supportCategories))]
	product := pick(rng, supportProducts)
	customer := pick(rng, supportCustomers)
	channel := pick(rng, supportChannels)
	id := fmt.Sprintf("TCK-%06d", idx+1)

	priority := fmt.Sprintf("P%d", 3+rng.Intn(2))
	phrase := pick(rng, routinePhrases)
	responseHours := float64(24 * (1 + rng.Intn(3)))
	if urgent {
		priority = fmt.Sprintf("P%d", 1+rng.Intn(2))
		phrase = pick(rng, urgentPhrases)
		responseHours = float64(1 + rng.Intn(4))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Ticket %s — %s\n\n", id, cat.subject)
	fmt.Fprintf(&b, "Priority: %s  Channel: %s  Product: %s\n", priority, channel, product)
	fmt.Fprintf(&b, "Category: %s\n", cat.name)
	fmt.Fprintf(&b, "Customer: %s\n\n", customer)
	fmt.Fprintf(&b, "Message. %s\n\n", sentenceJoin(
		fmt.Sprintf("We use %s across several teams", product),
		cat.body,
		phrase,
	))
	fmt.Fprintf(&b, "Requested first response within %.0f hours.\n", responseHours)

	truth := &Truth{
		Topics: []string{"support ticket", cat.name},
		Labels: map[string]bool{UrgentLabel: urgent},
		Fields: map[string]string{
			"ticket_id": id,
			"customer":  customer,
			"product":   product,
			"category":  cat.name,
			"priority":  priority,
			"channel":   channel,
		},
		Numbers: map[string]float64{"response_hours": responseHours},
	}
	return &Doc{
		Filename: fmt.Sprintf("ticket-%06d.txt", idx+1),
		Text:     b.String(),
		Truth:    truth,
	}
}

// validateSupportDoc checks the support domain's invariants: the urgent
// label agrees with the recorded priority, and the priority/category are
// present in the text for the oracle to extract.
func validateSupportDoc(d *Doc) error {
	pri := d.Truth.Fields["priority"]
	urgent := d.Truth.Labels[UrgentLabel]
	if got := pri == "P1" || pri == "P2"; got != urgent {
		return fmt.Errorf("urgent label %t disagrees with priority %s", urgent, pri)
	}
	if !strings.Contains(d.Text, "Priority: "+pri) {
		return fmt.Errorf("priority %s not stated in text", pri)
	}
	if !strings.Contains(d.Text, "Category: "+d.Truth.Fields["category"]) {
		return fmt.Errorf("category %s not stated in text", d.Truth.Fields["category"])
	}
	return nil
}
