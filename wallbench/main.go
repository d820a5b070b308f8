// Command wallbench is the repository's wall-clock benchmark. It runs one
// seeded workload against the public entry points of pz, serve, cluster
// and palimpchat, checks every output, and prints the end-to-end metrics
// (--trace 0) or, from a traced run that times the benchmark's own calls
// into each layer, the per-layer metrics (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"docs_per_s": {"value": 31000.5, "unit": "docs/s"}, ...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash wallbench/run.sh --workload corpus_scan --seed 1 --seconds 15 --trace 0
//	bash wallbench/run.sh --workload serve_mix --seed 1 --seconds 15 --spread 5
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wallbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 15, "nominal run length; sizes the op count")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer mode")
	spread := fs.Int("spread", 0, "run the workload this many times on consecutive seeds and report each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "wallbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, size: 1}
	if *spread > 0 {
		if err := spreadReport(stdout, *name, cfg, *traced == 1, *spread); err != nil {
			fmt.Fprintln(stderr, "wallbench:", err)
			return 1
		}
		return 0
	}
	// Pinned runtime settings: every core, the default GC target.
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(100)

	tmp, err := os.MkdirTemp("", "wallbench-")
	if err != nil {
		fmt.Fprintln(stderr, "wallbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	var res *result
	var sizes map[string]int
	if *traced == 1 {
		spans := fmt.Sprintf(".bench_build/spans-%s-%d.json", *name, *seed)
		res, sizes, err = traceRun(stdout, *name, cfg, tmp, spans)
	} else {
		res, sizes, err = benchRun(stdout, *name, cfg, tmp)
	}
	if err != nil {
		fmt.Fprintln(stderr, "wallbench:", err)
		return 1
	}
	printSettings(stdout, *name, cfg, sizes)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "wallbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// benchRun is the untimed set-up plus the timed op sequence, which alone
// supply the end-to-end metrics.
func benchRun(stdout io.Writer, name string, cfg config, tmp string) (*result, map[string]int, error) {
	w, setupS, err := prepare(name, cfg, tmp)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	ph, err := runPhase(w)
	if err != nil {
		return nil, nil, err
	}
	m, raw, failed := endToEnd(ph, setupS)
	f, fc := hostFactors(ph)
	fmt.Fprintf(stdout, "# host factor wall %.4f cpu %.4f (medians of %d probes, %d discarded as disturbed; reference %v wall, %v cpu per core); as measured: setup_s %.6g docs_per_s %.6g op_p50_ms %.6g cpu_us_per_doc %.6g\n",
		f, fc, len(ph.probes), ph.disturbed, probeRef, probeRefCPU, raw["setup_s"], raw["docs_per_s"], raw["op_p50_ms"], raw["cpu_us_per_doc"])
	for _, st := range ph.stats {
		if st.err != nil {
			fmt.Fprintf(stdout, "# failed %s op: %v\n", st.class, st.err)
		}
	}
	printTails(stdout, ph)
	return &result{Correct: failed == 0, Attempted: len(ph.stats), Failed: failed, Metrics: m}, w.sizes(), nil
}

// printTails reports, per op class, the highest percentile with at least
// ten samples beyond it. It is informational: corpus_scan and
// cluster_scatter run too few ops for one.
func printTails(stdout io.Writer, ph phase) {
	byClass := map[string][]float64{}
	var all []float64
	for _, st := range ph.stats {
		if st.ok {
			ms := st.wall.Seconds() * 1000
			byClass[st.class] = append(byClass[st.class], ms)
			all = append(all, ms)
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	classes = append(classes, "all")
	byClass["all"] = all
	for _, c := range classes {
		v := byClass[c]
		if p, t, ok := tailPercentile(v); ok {
			fmt.Fprintf(stdout, "# op_tail_ms %s: p%g = %.4f ms (p50 %.4f ms, n=%d)\n", c, p, t, median(v), len(v))
		} else {
			fmt.Fprintf(stdout, "# op_tail_ms %s: too few ops (n=%d, p50 %.4f ms)\n", c, len(v), median(v))
		}
	}
}

func printSettings(stdout io.Writer, name string, cfg config, sizes map[string]int) {
	settings := map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"GOMAXPROCS": runtime.GOMAXPROCS(0),
		"GOGC":       100,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"sizes":      sizes,
	}
	// A map of strings and numbers always marshals.
	line, _ := json.Marshal(settings)
	fmt.Fprintf(stdout, "# settings %s\n", line)
}
