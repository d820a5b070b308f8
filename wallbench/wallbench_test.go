package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if len(b.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayerNames))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayerNames[i] || m.Unit != unitOf(perLayerNames[i]) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
				i, m.Name, m.Unit, perLayerNames[i], unitOf(perLayerNames[i]))
		}
	}
}

// checkMetrics asserts the result carries exactly the named metrics with
// their units and finite values.
func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", name)
		case m.Unit != unit:
			t.Errorf("metric %s in %q, want %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its
// unit, and that the traced run writes its span file.
func TestSmoke(t *testing.T) {
	b := readBenchmark(t)
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 5, seconds: 1, size: 0.02}
			var out bytes.Buffer
			res, _, err := benchRun(&out, name, cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, e2e)
			if v := res.Metrics["ok_share"].Value; v != 1 {
				t.Errorf("ok_share = %v, want 1", v)
			}
			for _, m := range []string{"setup_s", "docs_per_s", "op_p50_ms", "cpu_us_per_doc"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
				}
			}
			spans := filepath.Join(t.TempDir(), "spans.json")
			res, _, err = traceRun(&out, name, cfg, t.TempDir(), spans)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, layer)
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			ops := 0
			for _, s := range doc.Spans {
				if s.Op > 0 {
					ops++
				}
				if s.End < s.Start {
					t.Errorf("span %s ends before it starts", s.Name)
				}
			}
			if ops != res.Attempted {
				t.Errorf("%d op spans for %d ops", ops, res.Attempted)
			}
		})
	}
}

// inputsDigest hashes what a set-up workload generated: its corpus, its
// op script and the references its outputs are checked against.
func inputsDigest(t *testing.T, w workload) string {
	t.Helper()
	h := sha256.New()
	switch w := w.(type) {
	case *corpusScan:
		fmt.Fprint(h, w.manifest.SHA256, w.ops)
	case *clusterScatter:
		fmt.Fprint(h, w.manifest.SHA256, w.want, w.ops)
	case *serveMix:
		for _, op := range w.script {
			fmt.Fprintf(h, "%s|%s|%s\n", op.class, op.tenant, op.body)
		}
		for _, p := range w.pool {
			h.Write(p.want)
		}
	case *chatSessions:
		for _, v := range w.order {
			for _, turn := range v.turns {
				fmt.Fprintln(h, filepath.Base(turn.utterance))
			}
			h.Write(v.digest[:])
		}
		for _, sc := range w.scenarios {
			for _, d := range sc.docs {
				fmt.Fprintln(h, d.Filename, d.Text)
			}
		}
	default:
		t.Fatalf("no digest for %T", w)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSeedDeterminesInputs checks that the same seed gives the identical
// inputs and op sequence, and a different seed different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			digest := func(seed int64) string {
				w, err := newWorkload(name, config{seed: seed, seconds: 1, size: 0.02})
				if err != nil {
					t.Fatal(err)
				}
				defer w.close()
				if err := w.setup(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				return inputsDigest(t, w)
			}
			a, b, c := digest(7), digest(7), digest(8)
			if a != b {
				t.Errorf("seed 7 gave different inputs on two set-ups")
			}
			if a == c {
				t.Errorf("seeds 7 and 8 gave the same inputs")
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 3, 4, 5], n=4).
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestBusyTimeMergesOverlaps(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	iv := []interval{{at(5), at(8)}, {at(0), at(3)}, {at(2), at(4)}, {at(6), at(7)}}
	if got := busyTime(iv); got != 7*time.Millisecond {
		t.Errorf("busyTime = %v, want 7ms", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i)
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{{10, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true}} {
		p, _, ok := tailPercentile(v[:c.n])
		if p != c.p || ok != c.ok {
			t.Errorf("%d samples: p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.p, c.ok)
		}
	}
}

// sleeper is a workload whose ops only wait, so the program is idle
// between them unless something else runs.
type sleeper struct{ ops int }

func (s *sleeper) setup(string) error { return nil }
func (s *sleeper) clients() int       { return 1 }
func (s *sleeper) numOps() int        { return s.ops }
func (s *sleeper) do(int) opStat {
	time.Sleep(3 * time.Millisecond)
	return opStat{class: "sleep", docs: 1}
}
func (s *sleeper) check(_ int, st *opStat)             { st.ok = true }
func (s *sleeper) layers(string) (*layerInputs, error) { return nil, nil }
func (s *sleeper) sizes() map[string]int               { return nil }
func (s *sleeper) close()                              {}

// TestBackgroundWorkIsNotHostSlowness checks that a goroutine spinning
// beside the ops cannot pass for a slow host: every probe it disturbs is
// discarded, the run fails rather than scale its times, and its CPU time
// stays in the program's account.
func TestBackgroundWorkIsNotHostSlowness(t *testing.T) {
	ph, err := runPhase(&sleeper{ops: 400})
	if err != nil {
		t.Fatalf("quiet run: %v", err)
	}
	if len(ph.probes) < 2 {
		t.Errorf("quiet run kept %d probes (%d disturbed), want >= 2", len(ph.probes), ph.disturbed)
	}

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
		}
	}()
	start := time.Now()
	ph, err = runPhase(&sleeper{ops: 400})
	wall := time.Since(start)
	stop.Store(true)
	<-done
	if err == nil {
		t.Fatalf("spinning run kept %d probes (%d disturbed); want it failed", len(ph.probes), ph.disturbed)
	}
	if ph.used.cpu < wall/2 {
		t.Errorf("spinning run charged %v CPU to the program over %v; the spinner's share is missing", ph.used.cpu, wall)
	}
}
