package optimizer

import (
	"fmt"
)

// Policy selects a plan from candidates (paper §2.1: "Users can specify
// whether they are interested in quality, runtime, or cost ... or specify a
// meaningful combination of them").
type Policy interface {
	// Name is the short policy identifier ("max-quality").
	Name() string
	// Describe renders the policy with its parameters.
	Describe() string
	// Choose selects from a non-empty candidate set.
	Choose(plans []*Plan) (*Plan, error)
}

// MaxQuality maximizes output quality, breaking ties by lower cost then
// lower time.
type MaxQuality struct{}

// Name implements Policy.
func (MaxQuality) Name() string { return "max-quality" }

// Describe implements Policy.
func (MaxQuality) Describe() string { return "maximize output quality" }

// Choose implements Policy.
func (MaxQuality) Choose(plans []*Plan) (*Plan, error) {
	return argBest(plans, func(a, b *Plan) bool {
		if a.Quality() != b.Quality() {
			return a.Quality() > b.Quality()
		}
		if a.Cost() != b.Cost() {
			return a.Cost() < b.Cost()
		}
		return a.Time() < b.Time()
	})
}

// MinCost minimizes dollar cost, breaking ties by higher quality then lower
// time.
type MinCost struct{}

// Name implements Policy.
func (MinCost) Name() string { return "min-cost" }

// Describe implements Policy.
func (MinCost) Describe() string { return "minimize execution cost" }

// Choose implements Policy.
func (MinCost) Choose(plans []*Plan) (*Plan, error) {
	return argBest(plans, func(a, b *Plan) bool {
		if a.Cost() != b.Cost() {
			return a.Cost() < b.Cost()
		}
		if a.Quality() != b.Quality() {
			return a.Quality() > b.Quality()
		}
		return a.Time() < b.Time()
	})
}

// MinTime minimizes runtime, breaking ties by higher quality then lower
// cost.
type MinTime struct{}

// Name implements Policy.
func (MinTime) Name() string { return "min-time" }

// Describe implements Policy.
func (MinTime) Describe() string { return "minimize execution time" }

// Choose implements Policy.
func (MinTime) Choose(plans []*Plan) (*Plan, error) {
	return argBest(plans, func(a, b *Plan) bool {
		if a.Time() != b.Time() {
			return a.Time() < b.Time()
		}
		if a.Quality() != b.Quality() {
			return a.Quality() > b.Quality()
		}
		return a.Cost() < b.Cost()
	})
}

// MaxQualityAtCost maximizes quality among plans within a dollar budget
// (falling back to the cheapest plan, flagged, when none qualifies).
type MaxQualityAtCost struct {
	// BudgetUSD is the inclusive cost cap.
	BudgetUSD float64
}

// Name implements Policy.
func (p MaxQualityAtCost) Name() string { return "quality-at-cost" }

// Describe implements Policy.
func (p MaxQualityAtCost) Describe() string {
	return fmt.Sprintf("maximize quality subject to cost <= $%.2f", p.BudgetUSD)
}

// Choose implements Policy.
func (p MaxQualityAtCost) Choose(plans []*Plan) (*Plan, error) {
	return constrained(plans,
		func(pl *Plan) bool { return pl.Cost() <= p.BudgetUSD },
		MaxQuality{}, MinCost{})
}

// MaxQualityAtTime maximizes quality among plans within a runtime cap (the
// paper's "maximize the output quality while being under a certain
// latency").
type MaxQualityAtTime struct {
	// CapSec is the inclusive runtime cap in seconds.
	CapSec float64
}

// Name implements Policy.
func (p MaxQualityAtTime) Name() string { return "quality-at-time" }

// Describe implements Policy.
func (p MaxQualityAtTime) Describe() string {
	return fmt.Sprintf("maximize quality subject to runtime <= %.0fs", p.CapSec)
}

// Choose implements Policy.
func (p MaxQualityAtTime) Choose(plans []*Plan) (*Plan, error) {
	return constrained(plans,
		func(pl *Plan) bool { return pl.Time() <= p.CapSec },
		MaxQuality{}, MinTime{})
}

// MinCostAtQuality minimizes cost among plans meeting a quality floor.
type MinCostAtQuality struct {
	// Floor is the inclusive minimum quality.
	Floor float64
}

// Name implements Policy.
func (p MinCostAtQuality) Name() string { return "cost-at-quality" }

// Describe implements Policy.
func (p MinCostAtQuality) Describe() string {
	return fmt.Sprintf("minimize cost subject to quality >= %.2f", p.Floor)
}

// Choose implements Policy.
func (p MinCostAtQuality) Choose(plans []*Plan) (*Plan, error) {
	return constrained(plans,
		func(pl *Plan) bool { return pl.Quality() >= p.Floor },
		MinCost{}, MaxQuality{})
}

// MinTimeAtQuality minimizes runtime among plans meeting a quality floor.
type MinTimeAtQuality struct {
	// Floor is the inclusive minimum quality.
	Floor float64
}

// Name implements Policy.
func (p MinTimeAtQuality) Name() string { return "time-at-quality" }

// Describe implements Policy.
func (p MinTimeAtQuality) Describe() string {
	return fmt.Sprintf("minimize runtime subject to quality >= %.2f", p.Floor)
}

// Choose implements Policy.
func (p MinTimeAtQuality) Choose(plans []*Plan) (*Plan, error) {
	return constrained(plans,
		func(pl *Plan) bool { return pl.Quality() >= p.Floor },
		MinTime{}, MaxQuality{})
}

// argBest returns the best plan under a strict less ordering.
func argBest(plans []*Plan, better func(a, b *Plan) bool) (*Plan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("optimizer: no plans to choose from")
	}
	best := plans[0]
	for _, p := range plans[1:] {
		if better(p, best) {
			best = p
		}
	}
	return best, nil
}

// constrained selects with objective among plans passing ok; when none
// passes it falls back to fallback over all plans and flags the result.
func constrained(plans []*Plan, ok func(*Plan) bool, objective, fallback Policy) (*Plan, error) {
	var feasible []*Plan
	for _, p := range plans {
		if ok(p) {
			feasible = append(feasible, p)
		}
	}
	if len(feasible) > 0 {
		return objective.Choose(feasible)
	}
	chosen, err := fallback.Choose(plans)
	if err != nil {
		return nil, err
	}
	// Copy before flagging: the same *Plan may be chosen by other policies.
	flagged := *chosen
	flagged.ConstraintViolated = true
	return &flagged, nil
}

// ParsePolicy builds a policy from a name and optional parameter, the form
// the chat agent produces ("max quality", "min cost", "quality under 60
// seconds").
func ParsePolicy(name string, param float64) (Policy, error) {
	switch normalize(name) {
	case "max-quality", "maxquality", "quality", "best":
		return MaxQuality{}, nil
	case "min-cost", "mincost", "cost", "cheapest":
		return MinCost{}, nil
	case "min-time", "mintime", "time", "runtime", "fastest":
		return MinTime{}, nil
	case "quality-at-cost", "qualityatcost":
		if param <= 0 {
			return nil, fmt.Errorf("optimizer: quality-at-cost needs a positive budget")
		}
		return MaxQualityAtCost{BudgetUSD: param}, nil
	case "quality-at-time", "qualityattime":
		if param <= 0 {
			return nil, fmt.Errorf("optimizer: quality-at-time needs a positive cap")
		}
		return MaxQualityAtTime{CapSec: param}, nil
	case "cost-at-quality", "costatquality":
		if param <= 0 || param > 1 {
			return nil, fmt.Errorf("optimizer: cost-at-quality needs a floor in (0,1]")
		}
		return MinCostAtQuality{Floor: param}, nil
	case "time-at-quality", "timeatquality":
		if param <= 0 || param > 1 {
			return nil, fmt.Errorf("optimizer: time-at-quality needs a floor in (0,1]")
		}
		return MinTimeAtQuality{Floor: param}, nil
	default:
		return nil, fmt.Errorf("optimizer: unknown policy %q", name)
	}
}

func normalize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ' ' || r == '_':
			out = append(out, '-')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// Frontier returns the Pareto-optimal subset of plans (non-dominated on
// cost, time, quality); experiments report it as the optimizer's trade-off
// curve.
func Frontier(plans []*Plan) []*Plan {
	return paretoPrune(plans)
}
