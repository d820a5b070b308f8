package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// spreadReport runs the workload k times, one child process per seed
// (seed, seed+1, ...), and prints every metric's median, quartiles and
// spread: the interquartile range as a share of the median — the figure
// BENCHMARK.json bounds — and the worst single run's distance from the
// median, also as a share.
func spreadReport(stdout io.Writer, name string, cfg config, traced bool, k int) error {
	if _, err := newWorkload(name, cfg); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for j := 0; j < k; j++ {
		seed := cfg.seed + int64(j)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d ops failed verification", seed, res.Failed, res.Attempted)
		}
		for m, v := range res.Metrics {
			values[m] = append(values[m], v.Value)
			units[m] = v.Unit
		}
		fmt.Fprintf(stdout, "# seed %d done\n", seed)
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-40s %14s %14s %14s %8s %8s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "worst", "unit  values")
	for _, m := range names {
		v := values[m]
		q1, q2, q3 := quartiles(v)
		iqr, worst := 0.0, 0.0
		if q2 != 0 {
			iqr = (q3 - q1) / math.Abs(q2)
			for _, x := range v {
				worst = math.Max(worst, math.Abs(x-q2)/math.Abs(q2))
			}
		}
		fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %14.6g %8.4f %8.4f  %s  %.5g\n", m, q1, q2, q3, iqr, worst, units[m], v)
	}
	return nil
}

// lastResult parses the final JSON line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}
