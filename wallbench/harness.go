package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is what every workload is built from: the seed that generates
// its inputs, the run length that sizes its op count, and a scale factor
// on corpus sizes (1 for the benchmark, smaller for smoke tests).
type config struct {
	seed    int64
	seconds int
	size    float64
}

// scaled applies the size factor to a nominal count, never below min.
func (c config) scaled(n, min int) int {
	v := int(math.Round(float64(n) * c.size))
	if v < min {
		return min
	}
	return v
}

// opsFor sizes a run: rate ops per second of --seconds, never below min.
// The count is fixed by the arguments alone, so every run of a workload
// does the same work whatever the speed of the program.
func (c config) opsFor(rate float64, min int) int {
	n := int(math.Round(rate * float64(c.seconds)))
	if n < min {
		return min
	}
	return n
}

// opStat is the outcome of one op. The workload fills docs, cost and
// simulated time in do, and ok and f1 in check; the harness times do.
type opStat struct {
	class string
	start time.Time
	wall  time.Duration
	// docs counts input documents entering the plan's scans.
	docs int
	usd  float64
	sim  time.Duration
	// f1 is the op's output quality against ground truth (hasF1 when the
	// op produces records that can be scored).
	f1    float64
	hasF1 bool
	ok    bool
	err   error
}

// workload is one seeded benchmark workload.
type workload interface {
	// setup generates inputs under dir, starts what the ops talk to and
	// warms it up. The harness calls it several times on fresh values and
	// keeps the last.
	setup(dir string) error
	// clients is the number of closed-loop clients issuing ops.
	clients() int
	// numOps is the fixed length of the op sequence.
	numOps() int
	// do runs op i; this is the timed part.
	do(i int) opStat
	// check verifies op i's output and sets ok and f1. It runs outside the
	// op's time but inside the run's CPU and allocation totals.
	check(i int, st *opStat)
	// layers returns, after a traced run of the ops, the workload's inputs
	// and counts for the per-layer suite; dir is for files it writes.
	layers(dir string) (*layerInputs, error)
	// sizes describes the generated inputs.
	sizes() map[string]int
	// close stops servers and releases what setup built.
	close()
}

// workloadNames lists the workloads in the order BENCHMARK.json names
// them.
var workloadNames = []string{"corpus_scan", "serve_mix", "chat_sessions", "cluster_scatter"}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "corpus_scan":
		return newCorpusScan(cfg), nil
	case "serve_mix":
		return newServeMix(cfg), nil
	case "chat_sessions":
		return newChatSessions(cfg), nil
	case "cluster_scatter":
		return newClusterScatter(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// Set-up runs at least minSetups times per benchmark run, and again while
// the runs so far took under setupBudget, up to maxSetups; setup_s is the
// median. Cheap set-ups, whose times spread most, thus get more samples.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// prepare builds the workload repeatedly under root and returns the last
// build with the median set-up time as measured. Each earlier build is
// closed and its files removed before the next starts.
func prepare(name string, cfg config, root string) (w workload, setupS float64, err error) {
	var times []float64
	var total time.Duration
	for k := 0; k < minSetups || (total < setupBudget && k < maxSetups); k++ {
		if w != nil {
			w.close()
			if err := os.RemoveAll(filepath.Join(root, fmt.Sprintf("setup-%d", k-1))); err != nil {
				return nil, 0, err
			}
		}
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		if w, err = newWorkload(name, cfg); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		if err := w.setup(dir); err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s set-up: %w", name, err)
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
	}
	return w, median(times), nil
}

// usage is the process's resource use: CPU time (user + system) and heap
// allocations.
type usage struct {
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

func readUsage() usage {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return usage{cpu: processCPU(), allocs: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF on a valid struct cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, allocs: u.allocs - v.allocs, bytes: u.bytes - v.bytes}
}

// heapWatch samples the live heap the garbage collector reports at the
// end of each cycle. A sentinel object with a finalizer is re-armed on
// every cycle, so each completed GC is observed once.
type heapWatch struct {
	mu      sync.Mutex
	samples []float64
	stopped bool
}

func watchHeap() *heapWatch {
	h := &heapWatch{}
	h.observe()
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	// Larger than the tiny-allocator limit, so the finalizer always runs.
	sentinel := new([64]byte)
	runtime.SetFinalizer(sentinel, func(*[64]byte) {
		if h.observe() {
			h.arm()
		}
	})
}

// observe records the current live heap and reports whether the watch is
// still armed.
func (h *heapWatch) observe() bool {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return false
	}
	h.samples = append(h.samples, float64(s[0].Value.Uint64()))
	return true
}

// stop disarms the watch and returns the peak live heap in bytes, taken as
// the 95th percentile of the cycles' samples: the single largest one
// depends on where in an op a cycle happens to end.
func (h *heapWatch) stop() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	return percentile(h.samples, 95)
}

// phase is the timed part of a run.
type phase struct {
	stats []opStat
	// used is the process's resource use while ops ran and their outputs
	// were checked, less the CPU time of the host probe's own threads.
	used     usage
	heapPeak float64
	// probes are the durations of the host probes taken between ops while
	// the program was idle, and probeCPUs the CPU time of one core's share
	// of each; disturbed counts the probes discarded because it was not.
	probes, probeCPUs []float64
	disturbed         int
}

// probeEvery is how often the clients pause together for a host probe.
const probeEvery = time.Second

// A probe counts only if the program is idle just before and just after
// it: over a probeWindow sleep with the clients paused, the process may
// use at most probeQuiet of one core. Otherwise the program's own work
// would slow the probe and pass for a slow host. (Its CPU time during the
// probe itself cannot be told apart: the runtime's scheduling around the
// probe's threads costs some 10% of the probe.) A disturbed probe is
// retried up to probeTries times.
const (
	probeWindow = 10 * time.Millisecond
	probeQuiet  = 0.1
	probeTries  = 3
)

// idle reports whether the process stayed idle over a probeWindow sleep.
func idle() bool {
	c0, start := processCPU(), time.Now()
	time.Sleep(probeWindow)
	return float64(processCPU()-c0) <= probeQuiet*float64(time.Since(start))
}

// runPhase issues the workload's op sequence from its closed-loop
// clients. Each client takes the next op index when its previous op
// completes; ops are timed around do only, and each op's output is
// checked before the client takes the next. About every probeEvery the
// clients pause while the host probe runs. It fails if no probe found the
// program idle: a program that keeps working between ops leaves no way to
// tell its own work from the host's speed.
func runPhase(w workload) (phase, error) {
	// Built before the phase, so building the probe's tables is no cost of
	// the program's.
	p, err := probers()
	if err != nil {
		return phase{}, err
	}
	n := w.numOps()
	stats := make([]opStat, n)
	var next atomic.Int64
	// gate lets ops run side by side and a probe run alone.
	var gate sync.RWMutex
	var mu sync.Mutex
	var probeCPU time.Duration
	var probes, probeCPUs []float64
	var disturbed int
	var lastProbe time.Time
	due := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return time.Since(lastProbe) >= probeEvery
	}
	runProbe := func() {
		gate.Lock()
		defer gate.Unlock()
		if !due() {
			return
		}
		// Disabling the collector waits for a cycle in progress to finish
		// and starts no new one, so the program's GC never runs beside the
		// probe; that wait stays in the program's account.
		old := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(old)
		mu.Lock()
		defer mu.Unlock()
		lastProbe = time.Now()
		for try := 0; try < probeTries; try++ {
			if !idle() {
				disturbed++
				continue
			}
			d, own := p.run()
			// Only the probe's own threads are charged to it; whatever else
			// ran meanwhile stays in the program's account.
			probeCPU += own
			if !idle() {
				disturbed++
				continue
			}
			probes = append(probes, float64(d))
			probeCPUs = append(probeCPUs, float64(own)/float64(len(p.start)))
			return
		}
	}
	hw := watchHeap()
	before := readUsage()
	runProbe()
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				gate.RLock()
				start := time.Now()
				st := w.do(i)
				st.start, st.wall = start, time.Since(start)
				w.check(i, &st)
				stats[i] = st
				gate.RUnlock()
				if due() {
					runProbe()
				}
			}
		}()
	}
	wg.Wait()
	used := readUsage().sub(before)
	used.cpu -= probeCPU
	ph := phase{stats: stats, used: used, heapPeak: hw.stop(), probes: probes, probeCPUs: probeCPUs, disturbed: disturbed}
	if len(probes) == 0 {
		return ph, fmt.Errorf("all %d host probes ran while the program was busy between ops", disturbed)
	}
	return ph, nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostFactors are how much slower than on the reference host the phase's
// probes ran, in wall time and in CPU time. runPhase fails a phase without
// probes, so there is always one.
func hostFactors(ph phase) (wall, cpu float64) {
	return median(ph.probes) / float64(probeRef), median(ph.probeCPUs) / float64(probeRefCPU)
}

// endToEnd derives the end-to-end metrics of a run from its phase and its
// set-up time as measured. Failed ops count against ok_share and are left
// out of every speed. Wall times are divided by the run's wall host
// factor, rates multiplied by it, and CPU time is divided by its CPU host
// factor, so they read as on the reference host; raw holds them as
// measured. Set-up, just before the phase, takes the phase's factor.
func endToEnd(ph phase, setupS float64) (m map[string]metric, raw map[string]float64, failed int) {
	var walls, f1s []float64
	var docs int
	var usd float64
	var sim time.Duration
	var spans []interval
	for _, st := range ph.stats {
		if !st.ok {
			failed++
			continue
		}
		walls = append(walls, float64(st.wall)/float64(time.Millisecond))
		spans = append(spans, interval{st.start, st.start.Add(st.wall)})
		docs += st.docs
		usd += st.usd
		sim += st.sim
		if st.hasF1 {
			f1s = append(f1s, st.f1)
		}
	}
	ok := len(ph.stats) - failed
	perDoc := func(v float64) float64 {
		if docs == 0 {
			return 0
		}
		return v / float64(docs)
	}
	perOp := func(v float64) float64 {
		if ok == 0 {
			return 0
		}
		return v / float64(ok)
	}
	busy := busyTime(spans).Seconds()
	docsPerS := 0.0
	if busy > 0 {
		docsPerS = float64(docs) / busy
	}
	raw = map[string]float64{
		"setup_s":        setupS,
		"docs_per_s":     docsPerS,
		"op_p50_ms":      median(walls),
		"cpu_us_per_doc": perDoc(float64(ph.used.cpu) / float64(time.Microsecond)),
	}
	f, fc := hostFactors(ph)
	return map[string]metric{
		"setup_s":             {setupS / f, "s"},
		"docs_per_s":          {raw["docs_per_s"] * f, "docs/s"},
		"op_p50_ms":           {raw["op_p50_ms"] / f, "ms"},
		"cpu_us_per_doc":      {raw["cpu_us_per_doc"] / fc, "us"},
		"allocs_per_doc":      {perDoc(float64(ph.used.allocs)), "count"},
		"alloc_bytes_per_doc": {perDoc(float64(ph.used.bytes)), "B"},
		"heap_peak_mb":        {ph.heapPeak / (1 << 20), "MB"},
		"usd_per_kdoc":        {perDoc(usd) * 1000, "usd"},
		"sim_s_per_op":        {perOp(sim.Seconds()), "s"},
		"quality_f1":          {mean(f1s), "ratio"},
		"ok_share":            {float64(ok) / float64(len(ph.stats)), "ratio"},
	}, raw, failed
}

// tailPercentile returns the highest of a few standard percentiles with
// at least ten samples beyond it, and its value; ok is false when there
// are too few samples for any.
func tailPercentile(walls []float64) (p, v float64, ok bool) {
	for _, perMille := range []int{999, 990, 950, 900, 750} {
		if len(walls)*(1000-perMille)/1000 >= 10 {
			p = float64(perMille) / 10
			return p, percentile(walls, p), true
		}
	}
	return 0, 0, false
}

// interval is one op's wall-clock extent.
type interval struct{ from, to time.Time }

// busyTime is the length of the union of the intervals: the wall time
// during which at least one op was in flight.
func busyTime(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].from.Before(iv[j].from) })
	var total time.Duration
	var cur interval
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case !x.from.After(cur.to):
			if x.to.After(cur.to) {
				cur.to = x.to
			}
		default:
			total += cur.to.Sub(cur.from)
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur.to.Sub(cur.from)
	}
	return total
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), which is how spreads are judged.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
