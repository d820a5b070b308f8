package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestShutdownDrainDeadline: a handler that never returns cannot hold a
// daemon's shutdown past the drain deadline; its connection is closed.
func TestShutdownDrainDeadline(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	hs := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/stuck")
		if err == nil {
			resp.Body.Close()
		}
		reqErr <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}

	const drain = 100 * time.Millisecond
	start := time.Now()
	err = shutdown(hs, drain)
	if took := time.Since(start); took > drain+2*time.Second {
		t.Fatalf("shutdown took %v with a %v drain deadline", took, drain)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("shutdown = %v, want the deadline error", err)
	}
	select {
	case err := <-reqErr:
		if err == nil {
			t.Error("the stuck request got a response")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stuck request's connection stayed open after shutdown")
	}
}

// TestShutdownIdle: with nothing in flight, shutdown returns at once and
// without error.
func TestShutdownIdle(t *testing.T) {
	hs := NewHTTPServer("", http.NotFoundHandler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	if err := Shutdown(hs); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}
}
