// Command pzworker runs one worker of a Palimpzest scatter/gather cluster:
// an HTTP daemon that executes partition sub-plans shipped by a pzserve
// coordinator (see internal/cluster). Each request carries a serve.Spec
// prefix plan plus a byte range of an indexed NDJSON corpus; the worker
// opens its own range reader over the shared corpus file, runs the plan on
// a private pz.Context, and streams the resulting records back in
// sequence-tagged NDJSON chunks.
//
// Usage:
//
//	pzworker -addr :8078 -dataset tickets=./corpus.ndjson
//	         [-name worker-1] [-parallelism 4] [-chunk 256]
//	         [-coordinator http://coord:8077] [-advertise http://me:8078]
//	         [-heartbeat 5s]
//
// With -coordinator set, the worker registers itself with the coordinator's
// registry on startup and re-registers every -heartbeat interval (the
// registry treats re-registration as a liveness heartbeat), then
// deregisters on shutdown. -advertise is the URL the coordinator should
// dial back; it defaults from -addr, which only works when both run on the
// same host.
//
// API:
//
//	POST /v1/partition  execute a partition sub-plan, stream result chunks
//	GET  /metrics       Prometheus text exposition: counters plus a
//	                    per-partition sim-latency histogram (?format=json
//	                    for the JSON form)
//	GET  /healthz       liveness (the coordinator's health checks hit this)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8078", "listen address")
	name := flag.String("name", "", "worker name reported to the coordinator (default: host:port of -addr)")
	parallelism := flag.Int("parallelism", 4, "max concurrent LLM calls per operator within a partition")
	chunk := flag.Int("chunk", 256, "records per streamed result chunk")
	coordinator := flag.String("coordinator", "", "coordinator base URL to self-register with (empty = standalone)")
	advertise := flag.String("advertise", "", "URL the coordinator should dial this worker at (default: http://<addr>)")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "re-registration interval while -coordinator is set")

	datasets := map[string]string{}
	flag.Func("dataset", "name=path .ndjson corpus registration; must mirror the coordinator's (repeatable)", func(v string) error {
		n, path, ok := strings.Cut(v, "=")
		if !ok || n == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		datasets[n] = path
		return nil
	})
	flag.Parse()

	if err := run(*addr, *name, *coordinator, *advertise, datasets, *parallelism, *chunk, *heartbeat); err != nil {
		fmt.Fprintln(os.Stderr, "pzworker:", err)
		os.Exit(1)
	}
}

func run(addr, name, coordinator, advertise string, datasets map[string]string, parallelism, chunk int, heartbeat time.Duration) error {
	if parallelism < 1 {
		return fmt.Errorf("-parallelism must be >= 1, got %d", parallelism)
	}
	if chunk < 1 {
		return fmt.Errorf("-chunk must be >= 1, got %d", chunk)
	}
	if heartbeat <= 0 {
		return fmt.Errorf("-heartbeat must be positive, got %s", heartbeat)
	}
	if len(datasets) == 0 {
		return fmt.Errorf("at least one -dataset name=path is required")
	}
	for n, path := range datasets {
		st, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("dataset %q: %w", n, err)
		}
		if st.IsDir() || !strings.EqualFold(filepath.Ext(path), ".ndjson") {
			return fmt.Errorf("dataset %q: %s is not an .ndjson corpus file", n, path)
		}
	}
	if name == "" {
		name = strings.TrimPrefix(addr, ":")
		if strings.HasPrefix(addr, ":") {
			name = "worker" + addr
		}
	}
	if advertise == "" {
		advertise = "http://" + strings.TrimPrefix(addr, "http://")
	}

	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name:        name,
		Parallelism: parallelism,
		ChunkSize:   chunk,
		Datasets:    datasets,
	})
	if err != nil {
		return err
	}
	httpSrv := serve.NewHTTPServer(addr, w.Handler())

	stopHeartbeat := make(chan struct{})
	heartbeatDone := make(chan struct{})
	if coordinator != "" {
		if err := register(coordinator, name, advertise); err != nil {
			return fmt.Errorf("registering with coordinator: %w", err)
		}
		log.Printf("pzworker: registered with %s as %q (%s)", coordinator, name, advertise)
		go func() {
			defer close(heartbeatDone)
			t := time.NewTicker(heartbeat)
			defer t.Stop()
			for {
				select {
				case <-stopHeartbeat:
					return
				case <-t.C:
					if err := register(coordinator, name, advertise); err != nil {
						log.Printf("pzworker: heartbeat: %v", err)
					}
				}
			}
		}()
	} else {
		close(heartbeatDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sig
		log.Print("pzworker: shutting down")
		close(stopHeartbeat)
		<-heartbeatDone
		if coordinator != "" {
			if err := deregister(coordinator, name); err != nil {
				log.Printf("pzworker: deregister: %v", err)
			}
		}
		if err := serve.Shutdown(httpSrv); err != nil {
			log.Printf("pzworker: shutdown: %v", err)
		}
	}()

	log.Printf("pzworker: %q serving on %s (parallelism=%d chunk=%d datasets=%d)",
		name, addr, parallelism, chunk, len(datasets))
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		return err
	}
	// ListenAndServe returns as soon as shutdown begins; wait for the
	// drain to end.
	<-drained
	return nil
}

// register announces the worker to the coordinator's registry; the registry
// treats repeat registrations as liveness heartbeats.
func register(coordinator, name, url string) error {
	return post(coordinator+"/v1/workers/register", map[string]string{"name": name, "url": url})
}

func deregister(coordinator, name string) error {
	return post(coordinator+"/v1/workers/deregister", map[string]string{"name": name})
}

func post(url string, body map[string]string) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return nil
}
