// Command crashtest is the fault-injected recovery harness for dotserve:
// it builds nothing itself (scripts/crashtest.sh compiles dotserve, with
// -race, and passes the binary path), then drives a real server process
// through the crash-safety contract:
//
//  1. determinism — two independent restores of the same snapshot
//     directory answer a forced /v1/readvise bit-identically (only
//     plan_millis, wall-clock, is stripped);
//  2. kill mid-ingest — a dotserve SIGKILLed while acknowledging binary
//     observation batches loses nothing acknowledged more than two
//     snapshot intervals before the kill;
//  3. torn snapshot — a truncated newest generation is rejected and the
//     restore falls back to the previous one;
//  4. fault injection — with -faults forcing every snapshot write to
//     fail the server degrades (readyz 503, uncached advise 503) but
//     stays alive and keeps accepting binary observations.
//
// Run it via scripts/crashtest.sh, or directly:
//
//	go build -race -o /tmp/dotserve ./cmd/dotserve
//	go run ./scripts/crashtest -bin /tmp/dotserve
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dotprov/internal/online"
	"dotprov/internal/serve"
	"dotprov/scripts/internal/harness"
)

func main() {
	bin := flag.String("bin", "", "path to a dotserve binary (required)")
	flag.Parse()
	if *bin == "" {
		log.Fatal("crashtest: -bin is required")
	}
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if err := runAll(*bin); err != nil {
		log.Fatalf("crashtest: FAIL: %v", err)
	}
	log.Print("crashtest: PASS (determinism, kill mid-ingest, torn snapshot, fault injection)")
}

func runAll(bin string) error {
	root, err := os.MkdirTemp("", "crashtest-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	if err := phaseDeterminism(bin, filepath.Join(root, "a")); err != nil {
		return fmt.Errorf("phase determinism: %w", err)
	}
	dirB := filepath.Join(root, "b")
	if err := phaseKillMidIngest(bin, dirB); err != nil {
		return fmt.Errorf("phase kill mid-ingest: %w", err)
	}
	if err := phaseTornSnapshot(bin, dirB); err != nil {
		return fmt.Errorf("phase torn snapshot: %w", err)
	}
	if err := phaseFaultInjection(bin, filepath.Join(root, "d")); err != nil {
		return fmt.Errorf("phase fault injection: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------- phases

// phaseDeterminism: seed a stream plus drifted windows, shut down cleanly
// (final snapshot), then restore the same generation twice — killing each
// restore with SIGKILL so it cannot write a newer generation — and demand
// bit-identical forced re-advise answers.
func phaseDeterminism(bin, dir string) error {
	s, err := harness.Start(bin, "-snapshot-dir", dir, "-snapshot-every", "1h")
	if err != nil {
		return err
	}
	defer s.Kill()
	if err := defineStream(s); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := postFrames(s, driftFrame()); err != nil {
			return err
		}
	}
	if err := s.WaitHealth(func(h serve.HealthResponse) bool { return h.Observed >= 3 }, "3 observations folded", 5*time.Second); err != nil {
		return err
	}
	if err := s.Terminate(); err != nil {
		return err
	}

	var answers [][]byte
	for i := 0; i < 2; i++ {
		r, err := harness.Start(bin, "-snapshot-dir", dir, "-snapshot-every", "1h")
		if err != nil {
			return fmt.Errorf("restore %d: %w", i+1, err)
		}
		h, err := r.Health()
		if err == nil && h.Restored != 1 {
			err = fmt.Errorf("restored_streams = %d, want 1", h.Restored)
		}
		if err != nil {
			r.Kill()
			return fmt.Errorf("restore %d: %w", i+1, err)
		}
		ans, rerr := canonicalReadvise(r)
		r.Kill() // no clean shutdown: the next restore must see the same newest generation
		if rerr != nil {
			return fmt.Errorf("restore %d: %w", i+1, rerr)
		}
		answers = append(answers, ans)
	}
	if !bytes.Equal(answers[0], answers[1]) {
		return fmt.Errorf("restores disagree:\n  first:  %s\n  second: %s", answers[0], answers[1])
	}
	var resp serve.ReadviseResponse
	if err := json.Unmarshal(answers[0], &resp); err != nil {
		return err
	}
	if !resp.Drift.Drifted {
		return fmt.Errorf("restored stream lost its drift state: %s", answers[0])
	}
	log.Print("crashtest: determinism ok (re-advise bit-identical across restores, drift preserved)")
	return nil
}

// phaseKillMidIngest: with a 150ms snapshot cadence, stream acknowledged
// binary batches until a SIGKILL, then assert the restart restored every
// observation acknowledged more than two snapshot intervals before the
// kill. The 2x margin covers a fold in flight plus a snapshot in flight.
func phaseKillMidIngest(bin, dir string) error {
	const interval = 150 * time.Millisecond
	s, err := harness.Start(bin, "-snapshot-dir", dir, "-snapshot-every", interval.String())
	if err != nil {
		return err
	}
	defer s.Kill()
	if err := defineStream(s); err != nil {
		return err
	}
	ackTimes := []time.Time{time.Now()} // the defining observe is observation #1
	deadline := time.Now().Add(8 * interval)
	for time.Now().Before(deadline) {
		status, err := postFrames(s, driftFrame())
		if err != nil {
			return err
		}
		if status == http.StatusAccepted {
			ackTimes = append(ackTimes, time.Now())
		}
		time.Sleep(5 * time.Millisecond)
	}
	killedAt := time.Now()
	s.Kill()

	r, err := harness.Start(bin, "-snapshot-dir", dir, "-snapshot-every", "1h")
	if err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	defer r.Kill()
	h, err := r.Health()
	if err != nil {
		return err
	}
	if h.Restored != 1 {
		return fmt.Errorf("restored_streams = %d, want 1", h.Restored)
	}
	cutoff := killedAt.Add(-2 * interval)
	var owed int64
	for _, t := range ackTimes {
		if t.Before(cutoff) {
			owed++
		}
	}
	if h.Observed < owed {
		return fmt.Errorf("restored %d observations but %d were acknowledged >2 snapshot intervals before the kill (of %d total acks)",
			h.Observed, owed, len(ackTimes))
	}
	log.Printf("crashtest: kill mid-ingest ok (%d acks, %d owed by the snapshot contract, %d restored)",
		len(ackTimes), owed, h.Observed)
	return r.Terminate() // leaves dir with a fresh newest generation for the torn-snapshot phase
}

// phaseTornSnapshot truncates the newest generation in dir (freshly
// written by the previous phase's clean shutdown) and asserts the restart
// rejects it and restores the previous one.
func phaseTornSnapshot(bin, dir string) error {
	snaps, err := filepath.Glob(filepath.Join(dir, "dotsnap-*.snap"))
	if err != nil {
		return err
	}
	if len(snaps) < 2 {
		return fmt.Errorf("want >= 2 snapshot generations to tear one, have %v", snaps)
	}
	sort.Strings(snaps)
	newest := snaps[len(snaps)-1]
	info, err := os.Stat(newest)
	if err != nil {
		return err
	}
	if err := os.Truncate(newest, info.Size()/2); err != nil {
		return err
	}
	s, err := harness.Start(bin, "-snapshot-dir", dir, "-snapshot-every", "1h")
	if err != nil {
		return err
	}
	defer s.Kill()
	h, err := s.Health()
	if err != nil {
		return err
	}
	if h.Restored != 1 {
		return fmt.Errorf("restored_streams = %d after tearing the newest generation, want 1 (fallback)", h.Restored)
	}
	// The generation counter in healthz is the one the restore loaded;
	// landing on the torn generation's number would mean it was accepted.
	var torn uint64
	fmt.Sscanf(filepath.Base(newest), "dotsnap-%016x.snap", &torn)
	if h.SnapshotGen >= torn {
		return fmt.Errorf("restore reports generation %d, but generation %d was torn — fallback did not happen", h.SnapshotGen, torn)
	}
	log.Printf("crashtest: torn snapshot ok (generation %d rejected, restored %d)", torn, h.SnapshotGen)
	s.Kill()
	return nil
}

// phaseFaultInjection arms the snapshot fault plan so every write fails,
// and asserts the server degrades rather than dies: healthz stays 200 and
// reports the failures, readyz and fresh advise go 503, and the binary
// observation path keeps accepting.
func phaseFaultInjection(bin, dir string) error {
	s, err := harness.Start(bin,
		"-snapshot-dir", dir, "-snapshot-every", "100ms",
		"-faults", "seed=7,write=1")
	if err != nil {
		return err
	}
	defer s.Kill()
	if err := defineStream(s); err != nil {
		return err
	}
	if err := s.WaitHealth(func(h serve.HealthResponse) bool { return h.SnapshotFails >= 3 }, "3 consecutive snapshot failures", 5*time.Second); err != nil {
		return err
	}
	h, err := s.Health()
	if err != nil {
		return err
	}
	if h.Status != "degraded" {
		return fmt.Errorf("healthz status %q with %d snapshot failures, want degraded", h.Status, h.SnapshotFails)
	}
	if status, _ := s.Get("/v1/readyz"); status != http.StatusServiceUnavailable {
		return fmt.Errorf("readyz = %d while degraded, want 503", status)
	}
	status, err := postFrames(s, driftFrame())
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("binary observe = %d while degraded, want 202 (ingest stays open)", status)
	}
	status, _, err = s.PostJSON("/v1/readvise", serve.ReadviseRequest{Stream: "crash", Force: true})
	if err != nil {
		return err
	}
	if status != http.StatusServiceUnavailable {
		return fmt.Errorf("forced readvise = %d while degraded, want 503", status)
	}
	log.Printf("crashtest: fault injection ok (%d snapshot failures, degraded but alive, ingest open)", h.SnapshotFails)
	s.Kill()
	return nil
}

// ---------------------------------------------------------------- client

// postFrames ships one binary observation batch to the crash stream.
func postFrames(s *harness.Server, frames ...online.Frame) (int, error) {
	return s.PostFrames("crash", online.EncodeFrames(frames))
}

// defineStream creates the "crash" stream with an OLTP-shaped workload
// whose later windows (driftFrame) shift to sequential scans — the same
// shape the serve test suite drifts.
func defineStream(s *harness.Server) error {
	status, body, err := s.PostJSON("/v1/observe", serve.ObserveRequest{
		Stream:   "crash",
		Workload: oltpSpec(0),
		Box:      "box1",
		SLA:      0.25,
	})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("defining observe = %d: %s", status, bytes.TrimSpace(body))
	}
	return nil
}

// oltpSpec is the stream workload: random-read dominated at seqShare 0,
// scan dominated at seqShare 1.
func oltpSpec(seqShare float64) serve.WorkloadSpec {
	rand := (1 - seqShare) * 2e5
	seq := seqShare * 2e6
	return serve.WorkloadSpec{
		Objects: []serve.ObjectSpec{
			{Name: "orders", SizeBytes: 10e9},
			{Name: "orders_pkey", Kind: "index", Table: "orders", SizeBytes: 1e9},
			{Name: "wal", Kind: "log", SizeBytes: 1e9},
		},
		IO: []serve.IOSpec{
			{Object: "orders", SeqRead: seq, RandRead: rand},
			{Object: "orders_pkey", RandRead: rand},
			{Object: "wal", SeqWrite: 1e4},
		},
		CPUMillis:     100,
		Concurrency:   1,
		Txns:          50000,
		ElapsedMillis: 3.6e6,
	}
}

// driftFrame is one drifted window (seqShare 0.8) in wire form, indexed
// against oltpSpec's object order: 0 orders, 1 orders_pkey, 2 wal.
func driftFrame() online.Frame {
	spec := oltpSpec(0.8)
	f := online.Frame{
		CPU:     time.Duration(spec.CPUMillis) * time.Millisecond,
		Elapsed: time.Duration(spec.ElapsedMillis) * time.Millisecond,
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

// canonicalReadvise forces a re-advise and strips the only wall-clock
// field (plan_millis) so two runs over identical state compare equal.
func canonicalReadvise(s *harness.Server) ([]byte, error) {
	status, body, err := s.PostJSON("/v1/readvise", serve.ReadviseRequest{Stream: "crash", Force: true})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("forced readvise = %d: %s", status, bytes.TrimSpace(body))
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	delete(m, "plan_millis")
	return json.Marshal(m) // map keys marshal sorted: a canonical byte form
}
