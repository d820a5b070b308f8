// Command experiments regenerates every reproducible artifact of the
// PalimpChat paper and prints the paper-vs-measured tables recorded in
// EXPERIMENTS.md. Run with no arguments; use -only to run a subset:
//
//	go run ./cmd/experiments
//	go run ./cmd/experiments -only e1,e5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

// run executes the selected experiments, printing their tables to stdout
// and each failure to stderr; it fails if any experiment failed.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated experiment ids (e1..e8,ablations); empty = all")
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }
	failed := false
	fail := func(id string, err error) {
		fmt.Fprintf(stderr, "%s failed: %v\n", id, err)
		failed = true
	}

	if run("e1") {
		fmt.Fprintln(stdout, "## E1 — Scientific discovery (paper §3, Figure 5)")
		r, err := experiments.RunE1()
		if err != nil {
			fail("e1", err)
		} else {
			fmt.Fprintln(stdout, r.Table())
			fmt.Fprintln(stdout, "Chosen plan:", r.Plan)
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, "```")
			fmt.Fprint(stdout, r.Report)
			fmt.Fprintln(stdout, "```")
		}
		fmt.Fprintln(stdout)
	}

	if run("e2") {
		fmt.Fprintln(stdout, "## E2 — Chat pipeline construction (Figures 3-4)")
		dir, err := os.MkdirTemp("", "palimpchat-e2-")
		if err != nil {
			fail("e2", err)
		} else {
			defer os.RemoveAll(dir)
			r, err := experiments.RunE2(dir)
			if err != nil {
				fail("e2", err)
			} else {
				fmt.Fprintln(stdout, r.Table())
			}
		}
		fmt.Fprintln(stdout)
	}

	if run("e3") {
		fmt.Fprintln(stdout, "## E3 — Generated pipeline code (Figure 6)")
		dir, err := os.MkdirTemp("", "palimpchat-e3-")
		if err != nil {
			fail("e3", err)
		} else {
			defer os.RemoveAll(dir)
			r, err := experiments.RunE3(dir)
			if err != nil {
				fail("e3", err)
			} else {
				fmt.Fprintln(stdout, r.Table())
				fmt.Fprintf(stdout, "Missing elements: %d/%d\n\n", r.Missing, len(experiments.Figure6Elements))
				fmt.Fprintln(stdout, "```python")
				fmt.Fprint(stdout, r.Code)
				fmt.Fprintln(stdout, "```")
			}
		}
		fmt.Fprintln(stdout)
	}

	if run("e4") {
		fmt.Fprintln(stdout, "## E4 — Additional demo scenarios (legal discovery, real estate)")
		legal, err := experiments.RunE4Legal()
		if err != nil {
			fail("e4", err)
		}
		re, err := experiments.RunE4RealEstate()
		if err != nil {
			fail("e4", err)
		}
		if legal != nil && re != nil {
			fmt.Fprintln(stdout, experiments.E4Table([]*experiments.E4Result{legal, re}))
		}
		fmt.Fprintln(stdout)
	}

	if run("e5") {
		fmt.Fprintln(stdout, "## E5 — Optimizer policy sweep (paper §2.1)")
		rows, err := experiments.RunE5()
		if err != nil {
			fail("e5", err)
		} else {
			fmt.Fprintln(stdout, experiments.E5Table(rows))
		}
		fmt.Fprintln(stdout)
	}

	if run("e6") {
		fmt.Fprintln(stdout, "## E6 — Physical plan space and Pareto pruning")
		rows, err := experiments.RunE6()
		if err != nil {
			fail("e6", err)
		} else {
			fmt.Fprintln(stdout, experiments.E6Table(rows))
		}
		fmt.Fprintln(stdout)
	}

	if run("e7") {
		fmt.Fprintln(stdout, "## E7 — Sentinel (sample-based) calibration")
		rows, err := experiments.RunE7()
		if err != nil {
			fail("e7", err)
		} else {
			fmt.Fprintln(stdout, experiments.E7Table(rows))
		}
		fmt.Fprintln(stdout)
	}

	if run("e8") {
		fmt.Fprintln(stdout, "## E8 — Docstring-driven tool routing")
		r, err := experiments.RunE8()
		if err != nil {
			fail("e8", err)
		} else {
			fmt.Fprintln(stdout, r.Table())
		}
		fmt.Fprintln(stdout)
	}

	if run("e9") {
		fmt.Fprintln(stdout, "## E9 — Library-size scaling")
		rows, err := experiments.RunScale([]int{11, 33, 66, 110})
		if err != nil {
			fail("e9", err)
		} else {
			fmt.Fprintln(stdout, experiments.ScaleTable(rows))
		}
		fmt.Fprintln(stdout)
	}

	if run("ablations") {
		fmt.Fprintln(stdout, "## Ablation — conversion strategy (bonded vs field-at-a-time)")
		conv, err := experiments.RunAblationConvert()
		if err != nil {
			fail("ablations", err)
		} else {
			fmt.Fprintln(stdout, experiments.AblationConvertTable(conv))
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "## Ablation — embedding pre-filter")
		pre, err := experiments.RunAblationPrefilter()
		if err != nil {
			fail("ablations", err)
		} else {
			fmt.Fprintln(stdout, experiments.AblationPrefilterTable(pre))
		}
	}

	if failed {
		return errors.New("experiments failed")
	}
	return nil
}
