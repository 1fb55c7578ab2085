// Command fleetload is the multi-tenant load harness for dotserve: it
// drives 1000+ concurrent tenant streams of binary observation frames
// through a race-built server twice — once pinned to a single fold shard,
// once with one shard per CPU — and holds the fleet contract:
//
//  1. zero races — both server processes must survive the full load and
//     shut down cleanly (a -race build dies loudly otherwise, and the
//     harness also scans stderr for race reports);
//  2. bounded shed — every frame is eventually admitted (the harness
//     retries 429s) and the shed rate stays under a hard ceiling;
//  3. fleet memo — tenants are drawn from a small set of workload
//     shapes, so duplicate-fingerprint defines must coalesce: exactly
//     one memo miss per shape, hits for everyone else;
//  4. shard parity — the defining advises and the post-drain forced
//     re-advises of the chaos-untouched tenant cohort are bit-identical
//     between the 1-shard and N-shard runs (only plan_millis, wall
//     clock, is stripped): shard count is an execution detail.
//
// Tenants whose index ends the chaos stride fire an extra forced
// re-advise mid-load (staggered by tenant) to stress the fold/readvise
// interleaving; their decisions are deliberately excluded from the
// parity check, since they anchor at a nondeterministic fold depth.
//
// Run it via scripts/fleetload.sh, or directly:
//
//	go build -race -o /tmp/dotserve ./cmd/dotserve
//	go run ./scripts/fleetload -bin /tmp/dotserve
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dotprov/internal/online"
	"dotprov/internal/serve"
	"dotprov/scripts/internal/harness"
)

// opts carries the harness knobs.
type opts struct {
	bin     string
	tenants int
	frames  int
	shapes  int
	workers int
	shards  int
}

func main() {
	var o opts
	flag.StringVar(&o.bin, "bin", "", "path to a dotserve binary (required; build it with -race)")
	flag.IntVar(&o.tenants, "tenants", 1000, "concurrent tenant streams")
	flag.IntVar(&o.frames, "frames", 4, "binary frames shipped per tenant")
	flag.IntVar(&o.shapes, "shapes", 8, "distinct workload shapes (tenant i uses shape i%%shapes; duplicates must hit the fleet memo)")
	flag.IntVar(&o.workers, "workers", 64, "client-side concurrency")
	flag.IntVar(&o.shards, "shards", 0, "shard count for the N-shard run (0 = max(2, NumCPU))")
	flag.Parse()
	if o.bin == "" {
		log.Fatal("fleetload: -bin is required")
	}
	if o.shards == 0 {
		o.shards = runtime.NumCPU()
		if o.shards < 2 {
			o.shards = 2
		}
	}
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if err := run(o); err != nil {
		log.Fatalf("fleetload: FAIL: %v", err)
	}
	log.Printf("fleetload: PASS (%d tenants, %d shapes, 1-shard vs %d-shard parity, zero races)",
		o.tenants, o.shapes, o.shards)
}

func run(o opts) error {
	one, err := runFleet(o, 1)
	if err != nil {
		return fmt.Errorf("1-shard run: %w", err)
	}
	many, err := runFleet(o, o.shards)
	if err != nil {
		return fmt.Errorf("%d-shard run: %w", o.shards, err)
	}
	// Shard parity: defining advises for every tenant, post-drain forced
	// decisions for the chaos-untouched cohort.
	for name, ans := range one.defines {
		if many.defines[name] != ans {
			return fmt.Errorf("define parity: tenant %s differs between 1 and %d shards:\n  1: %s\n  %d: %s",
				name, o.shards, ans, o.shards, many.defines[name])
		}
	}
	if len(one.decides) == 0 {
		return fmt.Errorf("parity cohort is empty — chaos stride swallowed every tenant")
	}
	for name, ans := range one.decides {
		if many.decides[name] != ans {
			return fmt.Errorf("decision parity: tenant %s differs between 1 and %d shards:\n  1: %s\n  %d: %s",
				name, o.shards, ans, o.shards, many.decides[name])
		}
	}
	log.Printf("fleetload: parity ok (%d defines, %d untouched decisions bit-identical across shard counts)",
		len(one.defines), len(one.decides))
	return nil
}

// chaosTenant marks the tenants that fire a mid-load forced re-advise:
// they stress the interleaving but anchor nondeterministically, so the
// parity check skips them.
func chaosTenant(i int) bool { return i%5 == 4 }

// fleetRun is everything one server run yields for cross-run assertions.
type fleetRun struct {
	defines map[string]string // tenant -> canonical defining advise
	decides map[string]string // untouched tenant -> canonical forced re-advise
}

func runFleet(o opts, shards int) (*fleetRun, error) {
	s, err := harness.Start(o.bin,
		"-shards", fmt.Sprint(shards),
		"-max-streams", fmt.Sprint(o.tenants),
		"-max-concurrent", fmt.Sprint(o.workers),
		"-search-workers", "2", // fixed width: decisions must not depend on the host
	)
	if err != nil {
		return nil, err
	}
	defer s.Kill()
	log.Printf("fleetload: [%d shards] defining %d tenants over %d shapes", shards, o.tenants, o.shapes)

	r := &fleetRun{defines: make(map[string]string, o.tenants), decides: make(map[string]string)}
	var mu sync.Mutex // guards r across the worker pool

	// Phase 1: define every tenant. Duplicate-fingerprint defines must
	// coalesce on the fleet memo (asserted after the phase).
	err = pool(o.workers, o.tenants, func(i int) error {
		name := tenantName(i)
		body, err := postRetry(s, "/v1/observe", serve.ObserveRequest{
			Stream:   name,
			Workload: shapeSpec(i%o.shapes, 0),
			Box:      "box1",
			SLA:      0.25,
		})
		if err != nil {
			return fmt.Errorf("define %s: %w", name, err)
		}
		ans, err := canonical(body)
		if err != nil {
			return fmt.Errorf("define %s: %w", name, err)
		}
		mu.Lock()
		r.defines[name] = ans
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	h, err := s.Health()
	if err != nil {
		return nil, err
	}
	if h.MemoMisses != int64(o.shapes) || h.MemoHits < int64(o.tenants-o.shapes) {
		return nil, fmt.Errorf("fleet memo: hits=%d misses=%d over %d tenants / %d shapes, want misses == shapes and hits >= tenants-shapes",
			h.MemoHits, h.MemoMisses, o.tenants, o.shapes)
	}
	log.Printf("fleetload: [%d shards] defines ok (memo hits=%d misses=%d)", shards, h.MemoHits, h.MemoMisses)

	// Phase 2: every tenant ships its frames (retrying sheds), chaos
	// tenants interleave a staggered forced re-advise.
	var posts, sheds atomic.Int64
	err = pool(o.workers, o.tenants, func(i int) error {
		name := tenantName(i)
		frame := online.EncodeFrames([]online.Frame{driftFrame(i % o.shapes)})
		for j := 0; j < o.frames; j++ {
			if chaosTenant(i) && j == 1+i%(o.frames-1) {
				if _, err := postRetry(s, "/v1/readvise", serve.ReadviseRequest{Stream: name, Force: true}); err != nil {
					return fmt.Errorf("chaos readvise %s: %w", name, err)
				}
			}
			for {
				status, err := s.PostFrames(name, frame)
				if err != nil {
					return fmt.Errorf("frames %s: %w", name, err)
				}
				posts.Add(1)
				if status == http.StatusAccepted {
					break
				}
				if status != http.StatusTooManyRequests {
					return fmt.Errorf("frames %s: status %d", name, status)
				}
				sheds.Add(1)
				time.Sleep(2 * time.Millisecond)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shedRate := float64(sheds.Load()) / float64(posts.Load())
	if shedRate > 0.9 {
		return nil, fmt.Errorf("shed rate %.2f (%d of %d posts) — the fold plane is not keeping up", shedRate, sheds.Load(), posts.Load())
	}

	// Phase 3: drain — every admitted frame folds.
	want := int64(o.tenants * o.frames)
	if err := s.WaitHealth(func(h serve.HealthResponse) bool { return h.Ingested >= want && h.Queued == 0 },
		fmt.Sprintf("%d frames folded", want), time.Minute); err != nil {
		return nil, err
	}
	log.Printf("fleetload: [%d shards] load ok (%d frames folded, shed rate %.3f)", shards, want, shedRate)

	// Phase 4: forced decisions for the chaos-untouched cohort.
	err = pool(o.workers, o.tenants, func(i int) error {
		if chaosTenant(i) {
			return nil
		}
		name := tenantName(i)
		body, err := postRetry(s, "/v1/readvise", serve.ReadviseRequest{Stream: name, Force: true})
		if err != nil {
			return fmt.Errorf("decide %s: %w", name, err)
		}
		ans, err := canonical(body)
		if err != nil {
			return fmt.Errorf("decide %s: %w", name, err)
		}
		mu.Lock()
		r.decides[name] = ans
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Clean shutdown: a -race build that observed a race exits non-zero.
	if err := s.Terminate(); err != nil {
		return nil, err
	}
	if s.SawRace() {
		return nil, fmt.Errorf("race detector fired (see stderr above)")
	}
	return r, nil
}

// pool runs fn(0..n-1) on w workers and returns the first error.
func pool(w, n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	next := atomic.Int64{}
	var firstErr atomic.Value
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || firstErr.Load() != nil {
					return
				}
				if err := fn(i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return err.(error)
	}
	return nil
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%04d", i) }

// shapeSpec is shape k's workload at a given scan share: the shapes vary
// in size and rate so distinct shapes land distinct fingerprints (and
// often distinct layouts), while tenants of one shape are byte-identical.
func shapeSpec(k int, seqShare float64) serve.WorkloadSpec {
	scale := 1 + float64(k)*0.35
	rand := (1 - seqShare) * 2e5 * scale
	seq := seqShare * 2e6 * scale
	return serve.WorkloadSpec{
		Objects: []serve.ObjectSpec{
			{Name: "orders", SizeBytes: int64(8e9 * scale)},
			{Name: "orders_pkey", Kind: "index", Table: "orders", SizeBytes: int64(8e8 * scale)},
			{Name: "wal", Kind: "log", SizeBytes: 1e9},
		},
		IO: []serve.IOSpec{
			{Object: "orders", SeqRead: seq, RandRead: rand},
			{Object: "orders_pkey", RandRead: rand},
			{Object: "wal", SeqWrite: 1e4 * scale},
		},
		CPUMillis:     100 * scale,
		Concurrency:   1,
		Txns:          50000,
		ElapsedMillis: 3.6e6,
	}
}

// driftFrame is shape k's drifted window (scan share 0.8) in wire form,
// indexed against shapeSpec's object order.
func driftFrame(k int) online.Frame {
	spec := shapeSpec(k, 0.8)
	f := online.Frame{
		CPU:     time.Duration(spec.CPUMillis * float64(time.Millisecond)),
		Elapsed: time.Duration(spec.ElapsedMillis * float64(time.Millisecond)),
		Txns:    spec.Txns,
	}
	for i, io := range spec.IO {
		var o online.FrameObject
		o.Index = uint32(i)
		o.IO[0], o.IO[1], o.IO[2], o.IO[3] = io.SeqRead, io.RandRead, io.SeqWrite, io.RandWrite
		f.Objects = append(f.Objects, o)
	}
	return f
}

// canonical re-marshals a JSON answer with plan_millis (the only
// wall-clock field) stripped; map keys marshal sorted, so equal answers
// compare equal as strings.
func canonical(body []byte) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return "", fmt.Errorf("%w (body: %s)", err, bytes.TrimSpace(body))
	}
	delete(m, "plan_millis")
	out, err := json.Marshal(m)
	return string(out), err
}

// ---------------------------------------------------------------- client

// postRetry posts JSON and retries transient refusals (429 shed/capacity
// backpressure, 503 saturation) until the server answers 200.
func postRetry(s *harness.Server, path string, req any) ([]byte, error) {
	deadline := time.Now().Add(time.Minute)
	for {
		status, b, err := s.PostJSON(path, req)
		if err != nil {
			return nil, err
		}
		switch status {
		case http.StatusOK:
			return b, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("%s: still %d after a minute of retries: %s", path, status, bytes.TrimSpace(b))
			}
			time.Sleep(5 * time.Millisecond)
		default:
			return nil, fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(b))
		}
	}
}
