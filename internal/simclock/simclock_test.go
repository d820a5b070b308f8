package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestSimSleepAdvances(t *testing.T) {
	c := NewSim()
	start := c.Now()
	c.Sleep(3 * time.Second)
	if got := c.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("elapsed = %v, want 3s", got)
	}
}

func TestSimSleepNonPositive(t *testing.T) {
	c := NewSim()
	start := c.Now()
	c.Sleep(0)
	c.Sleep(-time.Second)
	if got := c.Now(); !got.Equal(start) {
		t.Fatalf("clock moved on non-positive sleep: %v -> %v", start, got)
	}
}

func TestSimElapsed(t *testing.T) {
	c := NewSim()
	c.Sleep(90 * time.Second)
	c.Sleep(30 * time.Second)
	if got := c.Elapsed(); got != 120*time.Second {
		t.Fatalf("Elapsed = %v, want 2m", got)
	}
}

func TestSimConcurrentSleeps(t *testing.T) {
	c := NewSim()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sleep(time.Millisecond)
		}()
	}
	wg.Wait()
	if got := c.Elapsed(); got != 100*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 100ms", got)
	}
}

func TestRealClockMonotone(t *testing.T) {
	var c Real
	a := c.Now()
	c.Sleep(time.Millisecond)
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestSimEpochIsStable(t *testing.T) {
	a, b := NewSim(), NewSim()
	if !a.Now().Equal(b.Now()) {
		t.Fatalf("two fresh sim clocks disagree: %v vs %v", a.Now(), b.Now())
	}
}

func TestTallyAccumulatesWithoutSharedClock(t *testing.T) {
	base := NewSim().Now()
	tally := NewTally(base)
	if !tally.Now().Equal(base) {
		t.Fatalf("fresh tally Now = %v, want base %v", tally.Now(), base)
	}
	tally.Sleep(3 * time.Second)
	tally.Sleep(-time.Second) // non-positive sleeps are ignored
	tally.Sleep(2 * time.Second)
	if tally.Total() != 5*time.Second {
		t.Errorf("Total = %v, want 5s", tally.Total())
	}
	if want := base.Add(5 * time.Second); !tally.Now().Equal(want) {
		t.Errorf("Now = %v, want %v", tally.Now(), want)
	}
}

func TestTallyConcurrentSleeps(t *testing.T) {
	tally := NewTally(NewSim().Now())
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tally.Sleep(time.Second)
		}()
	}
	wg.Wait()
	if tally.Total() != 10*time.Second {
		t.Errorf("Total = %v, want 10s", tally.Total())
	}
}
