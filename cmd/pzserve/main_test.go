package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/pz"
)

func writeCorpus(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tickets.ndjson")
	g := corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: 11})
	if _, err := corpus.SaveNDJSON(path, g, 11, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func baseOptions() serveOptions {
	return serveOptions{
		engine: pz.Config{Parallelism: 2}, maxInflight: 2, maxQueue: 4, planCache: 8,
		healthInterval: time.Second, partitionTimeout: time.Minute,
		stragglerAfter: time.Minute, partitionRetries: 3,
	}
}

func TestRunValidation(t *testing.T) {
	dir := t.TempDir()
	notCorpus := filepath.Join(dir, "x.txt")
	if err := os.WriteFile(notCorpus, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		datasets map[string]string
		mutate   func(*serveOptions)
	}{
		{"zero parallelism", nil, func(o *serveOptions) { o.engine.Parallelism = 0 }},
		{"negative partitions", nil, func(o *serveOptions) { o.engine.Partitions = -1 }},
		{"negative reopt after", nil, func(o *serveOptions) { o.engine.ReoptAfterBatches = -1 }},
		{"negative batch", nil, func(o *serveOptions) { o.engine.StreamBatchSize = -1 }},
		{"negative sample", nil, func(o *serveOptions) { o.engine.SampleSize = -1 }},
		{"cluster zero retries", nil, func(o *serveOptions) { o.cluster = true; o.partitionRetries = 0 }},
		{"cluster zero partition timeout", nil, func(o *serveOptions) { o.cluster = true; o.partitionTimeout = 0 }},
		{"cluster zero straggler after", nil, func(o *serveOptions) { o.cluster = true; o.stragglerAfter = 0 }},
		{"cluster negative straggler after", nil, func(o *serveOptions) { o.cluster = true; o.stragglerAfter = -time.Second }},
		{"missing dataset", map[string]string{"x": filepath.Join(dir, "nope")}, nil},
		{"unsupported dataset file", map[string]string{"x": notCorpus}, nil},
		{"bad static worker", nil, func(o *serveOptions) {
			o.cluster = true
			o.workers = map[string]string{"w": "not-a-url"}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := baseOptions()
			if c.mutate != nil {
				c.mutate(&opts)
			}
			if err := run(":0", c.datasets, nil, opts); err == nil {
				t.Fatal("run accepted invalid configuration")
			}
		})
	}
}

// TestCoordinatorLifecycle boots the daemon in cluster mode with one
// static in-process worker, scatters a partitioned query through the
// public HTTP API, checks the registry endpoint, and shuts down
// gracefully on interrupt.
func TestCoordinatorLifecycle(t *testing.T) {
	path := writeCorpus(t, 60)
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name: "w1", Parallelism: 2, ChunkSize: 16,
		Datasets: map[string]string{"tickets": path},
	})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(w.Handler())
	defer worker.Close()

	addr := freeAddr(t)
	opts := baseOptions()
	opts.cluster = true
	opts.engine.Partitions = 4
	opts.workers = map[string]string{"w1": worker.URL}
	done := make(chan error, 1)
	go func() {
		done <- run(addr, map[string]string{"tickets": path}, nil, opts)
	}()

	base := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(base + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	workers, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(workers), `"w1"`) {
		t.Fatalf("/v1/workers = %s, want w1 registered", workers)
	}

	spec, err := json.Marshal(map[string]any{
		"dataset":    map[string]string{"name": "tickets"},
		"ops":        []map[string]string{{"op": "filter", "predicate": workloads.SupportPredicate}},
		"policy":     "max-quality",
		"partitions": 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	qresp, err := http.Post(base+"/v1/query?wait=1", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", qresp.StatusCode, body)
	}
	if !strings.Contains(string(body), "cluster-scatter") {
		t.Fatalf("query response does not report a scattered plan: %s", body)
	}

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not shut down on interrupt")
	}
}

// TestServerClosesStalledHeaders: a client that opens a connection and
// never finishes its request headers is disconnected once the server's
// header timeout passes, instead of holding the connection forever.
func TestServerClosesStalledHeaders(t *testing.T) {
	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() { done <- run(addr, nil, nil, baseOptions()) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: pzserve\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(serve.ReadHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 512))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection with a partial header block still open after %v", time.Since(start).Round(time.Millisecond))
	}
	if err == nil {
		t.Fatalf("server answered a partial header block with %d bytes", n)
	}

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down on interrupt")
	}
}
