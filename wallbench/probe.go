package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host probe is a fixed load that shares nothing with the program
// under test and allocates nothing: every core walks its own 4 MiB table
// in a data-dependent order and mixes what it reads. Run between ops, its
// duration tracks how fast the host is at that moment; on a shared
// machine that drifts by a third within minutes, far more than a program
// change the benchmark should detect. The caller pauses its clients while
// the probe runs and discards a probe during which the program did work
// of its own (see runPhase).

// probeWords sizes each core's table; probeSteps sizes one probe at
// about 15ms per core on a 2-vCPU host.
const (
	probeWords = 1 << 19
	probeSteps = 120_000
)

// probeRef is the probe's median duration on the reference host (2 vCPU
// Xeon at 2.1 GHz, quiet), and probeRefCPU the median CPU time of one
// core's walk there. Times are reported at that host's speed: a run whose
// probes take twice as long reports half its measured times. Wall times
// are scaled by the probe's duration, which counts the time a busy host
// keeps the probe off a core; CPU time by the probe's CPU time, which
// does not.
const (
	probeRef    = 15 * time.Millisecond
	probeRefCPU = 14 * time.Millisecond
)

// rusageThread is Linux's RUSAGE_THREAD: the calling thread's resource use.
const rusageThread = 1

// threadCPU is the calling OS thread's user+system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_THREAD on a valid struct cannot fail on Linux.
	_ = syscall.Getrusage(rusageThread, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// prober runs the probe on one goroutine per core. Each goroutine is
// locked to its own OS thread for life, so that thread's CPU time is the
// probe's alone, and waits on its start channel between probes.
type prober struct {
	start []chan struct{}
	done  chan time.Duration
}

// probers builds the tables and starts the probe's goroutines, once per
// process.
var probers = sync.OnceValues(func() (*prober, error) {
	n := runtime.NumCPU()
	// The tables live outside the Go heap, so they neither add to the
	// program's live heap nor shift its GC pacing.
	mem, err := syscall.Mmap(-1, 0, n*probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe tables: %w", err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n*probeWords)
	p := &prober{start: make([]chan struct{}, n), done: make(chan time.Duration, n)}
	for c := range p.start {
		t := all[c*probeWords : (c+1)*probeWords]
		x := uint64(c + 1)
		for i := range t {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			t[i] = x
		}
		p.start[c] = make(chan struct{})
		go p.work(c, t)
	}
	return p, nil
})

// work is one core's share of every probe: a walk of its table, timed on
// its thread's CPU clock.
func (p *prober) work(c int, t []uint64) {
	runtime.LockOSThread()
	var sink uint64
	for range p.start[c] {
		c0 := threadCPU()
		acc := sink
		i := uint64(c)
		for s := 0; s < probeSteps; s++ {
			v := t[i%probeWords]
			acc += v ^ (acc >> 3)
			i = v + uint64(s)
		}
		// Carried into the next walk, so the compiler cannot drop the work.
		sink = acc
		p.done <- threadCPU() - c0
	}
}

// run runs the fixed load once on every core. It returns its wall
// duration and the CPU time its own threads spent.
func (p *prober) run() (wall, own time.Duration) {
	start := time.Now()
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	for range p.start {
		own += <-p.done
	}
	return time.Since(start), own
}
