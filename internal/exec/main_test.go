package exec

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when goroutines outlive its tests. Every run
// starts one goroutine per operator stage (and per partition of a split
// prefix), so a stage that never exits — a missed close, a send nobody
// receives after cancellation — shows up here as a goroutine count that
// does not return to where it started.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !settles(base, 2*time.Second) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "goroutines leaked: %d running, %d at start\n%s\n",
			runtime.NumGoroutine(), base, buf)
		code = 1
	}
	os.Exit(code)
}

// settles waits up to timeout for the goroutine count to fall back to
// base, reporting whether it did.
func settles(base int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}
