// Command dotserve runs the DOT advisor as a long-lived HTTP/JSON service:
// the §5 provisioning sweep and the single-box advisor behind endpoints a
// control plane can poll as workload profiles drift.
//
//	dotserve -addr :8080
//
// Endpoints:
//
//	POST /v1/advise     — single-workload DOT on box1/box2 or a custom class list
//	POST /v1/provision  — full configuration sweep over a device grid
//	POST /v1/observe    — ingest a live profile window (JSON, or batched binary frames)
//	POST /v1/readvise   — drift-gated incremental re-advise of a stream
//	GET  /v1/fleet      — per-tenant fleet rollups (drift, SLA, cost, shard, memo)
//	GET  /v1/healthz    — liveness + counters
//	GET  /v1/readyz     — readiness (503 while draining or degraded)
//
// With -snapshot-dir the online plane is crash-safe: stream windows,
// deployed layouts and drift references are snapshotted periodically and
// on shutdown, and a restarted dotserve restores the newest valid
// generation before taking traffic.
//
// Example:
//
//	curl -s localhost:8080/v1/provision -d '{
//	  "workload": {
//	    "objects": [{"name": "orders", "size_bytes": 10000000000},
//	                {"name": "orders_pkey", "kind": "index", "table": "orders", "size_bytes": 1000000000}],
//	    "io": [{"object": "orders", "seq_read": 1000000},
//	           {"object": "orders_pkey", "rand_read": 10000}],
//	    "cpu_millis": 2000
//	  },
//	  "grid": {"devices": [{"class": "hdd-raid0", "counts": [0, 1]},
//	                       {"class": "lssd", "counts": [0, 1, 2]},
//	                       {"class": "hssd", "counts": [1]}],
//	           "alphas": [0, 1]},
//	  "sla": 0.5
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dotprov/internal/faultinject"
	"dotprov/internal/serve"
)

// options carries the flag values into run.
type options struct {
	addr     string
	maxConc  int
	timeout  time.Duration
	cache    int
	workers  int
	streams  int
	readvise time.Duration
	ingestQ  int
	shards   int
	memo     int
	ttl      time.Duration
	snapDir  string
	snapEach time.Duration
	snapKeep int
	drain    time.Duration
	faults   string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.maxConc, "max-concurrent", 4, "maximum simultaneous optimization requests (excess get 503)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request optimization timeout")
	flag.IntVar(&o.cache, "cache", 64, "sweep-result LRU entries")
	flag.IntVar(&o.workers, "search-workers", 0, "layout-search worker budget per request (0 = all CPUs)")
	flag.IntVar(&o.streams, "max-streams", 8, "maximum online streams /observe may define")
	flag.DurationVar(&o.readvise, "readvise-every", 0, "background re-advise interval for online streams (0 disables the ticker)")
	flag.IntVar(&o.ingestQ, "ingest-queue", 0, "binary-observe ingest queue depth in frames; overflow sheds with 429 (0 = default 1024)")
	flag.IntVar(&o.shards, "shards", 0, "tenant fold shards: each stream's frames fold on its ring-owned shard (0 = one per CPU)")
	flag.IntVar(&o.memo, "memo-entries", 0, "fleet advise-memo LRU entries, keyed by workload fingerprint + box + SLA (0 = default 128)")
	flag.DurationVar(&o.ttl, "stream-ttl", 0, "idle-tenant eviction TTL: untouched streams are parked out of the registry, freeing their slots, and return on the next touch (0 disables eviction)")
	flag.StringVar(&o.snapDir, "snapshot-dir", "", "directory for durable online-plane snapshots (empty disables snapshots)")
	flag.DurationVar(&o.snapEach, "snapshot-every", 0, "periodic snapshot interval (0 = default 10s; needs -snapshot-dir)")
	flag.IntVar(&o.snapKeep, "snapshot-keep", 0, "snapshot generations retained on disk (0 = default 3)")
	flag.DurationVar(&o.drain, "drain-timeout", 0, "shutdown drain deadline for acknowledged ingest frames (0 = default 10s)")
	flag.StringVar(&o.faults, "faults", "", "fault-injection plan for crash testing, e.g. seed=42,short=0.2,rename=0.1,latency=2ms,latencyp=0.5 (empty disables)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "dotserve: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	plan, err := faultinject.ParsePlan(o.faults)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	var snapFS faultinject.FS
	if plan != nil {
		snapFS = faultinject.Wrap(faultinject.OS, plan)
		log.Printf("dotserve: fault injection armed: %s", o.faults)
	}
	s := serve.New(serve.Config{
		MaxConcurrent:  o.maxConc,
		RequestTimeout: o.timeout,
		CacheEntries:   o.cache,
		Workers:        o.workers,
		MaxStreams:     o.streams,
		ReadviseEvery:  o.readvise,
		IngestQueue:    o.ingestQ,
		Shards:         o.shards,
		MemoEntries:    o.memo,
		StreamTTL:      o.ttl,
		SnapshotDir:    o.snapDir,
		SnapshotEvery:  o.snapEach,
		SnapshotKeep:   o.snapKeep,
		SnapshotFS:     snapFS,
		DrainTimeout:   o.drain,
		Logf:           log.Printf,
	})
	defer func() {
		if err := s.Close(); err != nil {
			log.Printf("dotserve: close: %v", err)
		}
	}()
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           faultinject.Middleware(plan, s.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout covers the body too: a trickled upload cannot hold a
		// connection (or an optimization slot) open indefinitely.
		ReadTimeout: time.Minute,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("dotserve listening on %s", o.addr)
		errc <- srv.ListenAndServe()
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("dotserve: %v, shutting down", sig)
		// Flip readiness and drain the ingest queue FIRST (load balancers see
		// /v1/readyz go 503; the final snapshot captures the drained state),
		// then stop the listener.
		if err := s.Close(); err != nil {
			log.Printf("dotserve: drain: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
