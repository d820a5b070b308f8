package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// FinanceConfig controls the financial-filings generator — the
// numeric-extraction workload. Filings embed revenue, net income, and
// earnings per share both in prose and in a key-figures line, and the
// ground truth carries the exact numbers, so scalar extraction quality is
// directly measurable.
type FinanceConfig struct {
	// NumFilings is the corpus size.
	NumFilings int
	// ProfitableRate is the fraction of filings reporting positive net
	// income (the scenario's filter target).
	ProfitableRate float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultFinance returns the financial-analysis workload used by examples
// and benches: 150 filings, 60% profitable.
func DefaultFinance() FinanceConfig {
	return FinanceConfig{NumFilings: 150, ProfitableRate: 0.6, Seed: 23}
}

// ProfitableLabel is the ground-truth boolean label on filings with
// positive net income.
const ProfitableLabel = "profitable"

var financeSectors = []string{
	"semiconductors", "software", "retail", "energy", "logistics",
	"biotech", "banking", "telecommunications",
}

var financeNameA = []string{
	"Meridian", "Cascade", "Northwind", "Summit", "Vanguard", "Horizon",
	"Pinnacle", "Sterling", "Atlas", "Crescent", "Redwood", "Ironbridge",
}

var financeNameB = []string{
	"Semiconductor", "Systems", "Industries", "Holdings", "Technologies",
	"Energy", "Logistics", "Therapeutics", "Financial", "Networks",
}

var financeSuffix = []string{"Corp", "Inc", "Group", "Ltd"}

// NewFinanceGenerator returns the streaming financial-filings generator:
// filing i is derived from a per-index RNG (constant memory at any
// NumFilings), and exactly round(NumFilings*ProfitableRate) filings are
// profitable, scattered deterministically across the corpus.
func NewFinanceGenerator(cfg FinanceConfig) Generator {
	profitable := int(float64(cfg.NumFilings)*cfg.ProfitableRate + 0.5)
	sc := newScatter(cfg.Seed, cfg.NumFilings)
	return NewIndexGenerator(DomainFinance, cfg.NumFilings, cfg.Seed, func(rng *rand.Rand, i int) *Doc {
		return genFiling(rng, i, sc.pos(i) < profitable)
	})
}

// GenerateFinance materializes the filings corpus — byte-identical to
// draining NewFinanceGenerator(cfg).
func GenerateFinance(cfg FinanceConfig) []*Doc {
	docs, _ := Collect(NewFinanceGenerator(cfg)) // index generators never error
	return docs
}

func genFiling(rng *rand.Rand, idx int, profitable bool) *Doc {
	company := fmt.Sprintf("%s %s %s",
		pick(rng, financeNameA), pick(rng, financeNameB), pick(rng, financeSuffix))
	ticker := tickerOf(company, rng)
	sector := pick(rng, financeSectors)
	year := 2019 + rng.Intn(6)

	revenue := float64(120 + rng.Intn(4880)) // USD millions
	margin := 0.04 + 0.16*rng.Float64()
	netIncome := float64(int(revenue * margin))
	if netIncome < 1 {
		netIncome = 1
	}
	if !profitable {
		netIncome = -netIncome
	}
	sharesM := float64(40 + rng.Intn(460))
	eps := float64(int(netIncome/sharesM*100)) / 100

	incomeSentence := fmt.Sprintf("Net income for the year was $%.0f million, and diluted earnings per share were %.2f", netIncome, eps)
	outlook := "Management expects continued demand and reaffirms its guidance for the coming fiscal year"
	if !profitable {
		incomeSentence = fmt.Sprintf("The company recorded a net loss for the year of $%.0f million, and diluted loss per share was %.2f", -netIncome, -eps)
		outlook = "Management has initiated a cost reduction program and expects to return to profitability as restructuring completes"
	}

	var b strings.Builder
	fmt.Fprintf(&b, "FORM 10-K — ANNUAL REPORT\n\n")
	fmt.Fprintf(&b, "%s (ticker: %s) — Fiscal Year %d\n\n", company, ticker, year)
	fmt.Fprintf(&b, "Item 1. Business. %s\n\n", sentenceJoin(
		fmt.Sprintf("%s operates in the %s sector", company, sector),
		"The company sells its products and services through direct and channel sales worldwide",
	))
	fmt.Fprintf(&b, "Item 7. Management's Discussion and Analysis. %s\n\n", sentenceJoin(
		fmt.Sprintf("Total revenue for fiscal year %d was $%.0f million", year, revenue),
		incomeSentence,
		outlook,
	))
	fmt.Fprintf(&b, "Item 8. Financial Statements.\n")
	fmt.Fprintf(&b, "Key figures (USD millions unless noted): revenue %.0f; net income %.0f; eps %.2f; fiscal year %d.\n\n",
		revenue, netIncome, eps, year)
	fmt.Fprintf(&b, "Signatures. Filed on behalf of %s by its principal executive officer.\n", company)

	truth := &Truth{
		Topics: []string{"financial filing", "annual report", sector},
		Labels: map[string]bool{ProfitableLabel: profitable},
		Fields: map[string]string{
			"company": company,
			"ticker":  ticker,
			"sector":  sector,
		},
		Numbers: map[string]float64{
			"revenue_musd":    revenue,
			"net_income_musd": netIncome,
			"eps":             eps,
			"fiscal_year":     float64(year),
		},
	}
	return &Doc{
		Filename: fmt.Sprintf("filing-%06d.txt", idx+1),
		Text:     b.String(),
		Truth:    truth,
	}
}

// tickerOf derives a plausible 3-4 letter ticker from the company name.
func tickerOf(company string, rng *rand.Rand) string {
	var letters []byte
	for _, w := range strings.Fields(company) {
		letters = append(letters, w[0])
	}
	for len(letters) < 3+rng.Intn(2) {
		letters = append(letters, byte('A'+rng.Intn(26)))
	}
	return strings.ToUpper(string(letters))
}

// validateFinanceDoc checks the finance domain's invariants: the
// profitable label agrees with the sign of net income, eps has the same
// sign, and the key figures are extractable from the text.
func validateFinanceDoc(d *Doc) error {
	ni := d.Truth.Numbers["net_income_musd"]
	if prof := d.Truth.Labels[ProfitableLabel]; prof != (ni > 0) {
		return fmt.Errorf("profitable label %t disagrees with net income %.0f", prof, ni)
	}
	if eps := d.Truth.Numbers["eps"]; eps*ni < 0 {
		return fmt.Errorf("eps %.2f sign disagrees with net income %.0f", eps, ni)
	}
	if !strings.Contains(d.Text, "Key figures") {
		return fmt.Errorf("key-figures line missing")
	}
	return nil
}
