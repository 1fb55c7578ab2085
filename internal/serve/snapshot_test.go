package serve

import (
	"bytes"
	"encoding/binary"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/faultinject"
	"dotprov/internal/online"
)

// snapServer builds a snapshot-enabled server over dir with an idle
// ticker (an hour), so tests control exactly when snapshots happen.
func snapServer(t *testing.T, dir string, fsys faultinject.FS) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Workers:       2,
		SnapshotDir:   dir,
		SnapshotEvery: time.Hour,
		SnapshotFS:    fsys,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return s, ts
}

// defineStream defines an initialized OLTP stream over the wire and
// returns the define response.
func defineStream(t *testing.T, ts *httptest.Server, name string) ObserveResponse {
	t.Helper()
	var out ObserveResponse
	req := ObserveRequest{Stream: name, Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}
	if status := post(t, ts, "/v1/observe", req, &out); status != http.StatusOK || !out.Initialized {
		t.Fatalf("define %s: status=%d %+v", name, status, out)
	}
	return out
}

// forcedReadvise runs a forced re-advise and zeroes the one wall-clock
// field, so decisions can be compared bit-for-bit across servers.
func forcedReadvise(t *testing.T, ts *httptest.Server, name string) ReadviseResponse {
	t.Helper()
	var out ReadviseResponse
	if status := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: name, Force: true}, &out); status != http.StatusOK {
		t.Fatalf("forced readvise %s: status=%d", name, status)
	}
	out.PlanMillis = 0
	return out
}

// TestServerSnapshotRestore is the tentpole's end-to-end invariant: a
// server snapshots its online plane on Close, a restarted server restores
// it before taking traffic, and two independent restores of the same
// generation produce BIT-IDENTICAL forced re-advise decisions — the
// restored stream resumes drift detection mid-window, it does not start
// cold.
func TestServerSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := snapServer(t, dir, nil)
	defineStream(t, ts1, "orders")
	// Drift the stream: two windows with a sequential-scan-heavy mix.
	for i := 0; i < 2; i++ {
		var out ObserveResponse
		req := ObserveRequest{Stream: "orders", Workload: oltpObserveSpec(1, 0.8)}
		if status := post(t, ts1, "/v1/observe", req, &out); status != http.StatusOK {
			t.Fatalf("drift window %d: status=%d", i, status)
		}
	}
	observed := s1.observed.Load()
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if s1.snapGen.Load() == 0 {
		t.Fatal("close wrote no snapshot generation")
	}

	_, ts2 := snapServer(t, dir, nil)
	var h HealthResponse
	getJSON(t, ts2, "/v1/healthz", &h)
	if h.Restored != 1 || h.SnapshotGen == 0 {
		t.Fatalf("restored=%d generation=%d, want 1 stream from a nonzero generation", h.Restored, h.SnapshotGen)
	}
	if h.Observed != observed {
		t.Fatalf("restored observed=%d, want %d", h.Observed, observed)
	}

	// Second independent restore of the SAME generation (before s2 writes
	// any new one): decisions must match s2's bit for bit.
	s3, ts3 := snapServer(t, dir, nil)
	_ = s3
	r2 := forcedReadvise(t, ts2, "orders")
	r3 := forcedReadvise(t, ts3, "orders")
	if !reflect.DeepEqual(r2, r3) {
		t.Fatalf("re-advise decisions diverged after recovery:\n%+v\n%+v", r2, r3)
	}
	if !r2.Drift.Drifted {
		t.Fatal("restored stream lost its drift state: forced re-advise saw no drift")
	}

	// The restored stream keeps working: another window and a readvise.
	var out ObserveResponse
	if status := post(t, ts2, "/v1/observe", ObserveRequest{Stream: "orders", Workload: oltpObserveSpec(1, 0.8)}, &out); status != http.StatusOK {
		t.Fatalf("post-restore observe: status=%d", status)
	}
}

// TestSnapshotPayloadRoundTrip: a live server's exported payload decodes
// back to itself and re-encodes bit-identically — the canonical-codec
// property FuzzDecodeSnapshot generalizes.
func TestSnapshotPayloadRoundTrip(t *testing.T) {
	s, ts := snapServer(t, t.TempDir(), nil)
	defineStream(t, ts, "orders")
	_ = s

	p := s.exportPayload()
	if len(p.streams) != 1 {
		t.Fatalf("exported %d streams, want 1", len(p.streams))
	}
	enc := appendSnapshotPayload(nil, p)
	dec, err := decodeSnapshotPayload(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(normPayload(dec), normPayload(p)) {
		t.Fatalf("payload did not round-trip:\n%+v\n%+v", dec, p)
	}
	if re := appendSnapshotPayload(nil, dec); !bytes.Equal(re, enc) {
		t.Fatal("re-encode differs from the original bytes")
	}
}

// normPayload canonicalizes nil-vs-empty distinctions the wire cannot
// preserve inside the manager states.
func normPayload(p snapshotPayload) snapshotPayload {
	for i := range p.streams {
		st := &p.streams[i].state
		if len(st.Layout) == 0 {
			st.Layout = nil
		}
		if len(st.Collector.Extents) == 0 {
			st.Collector.Extents = nil
		}
		if len(st.Collector.Closed) == 0 {
			st.Collector.Closed = nil
		}
	}
	return p
}

func TestDecodeSnapshotPayloadRejects(t *testing.T) {
	s, ts := snapServer(t, t.TempDir(), nil)
	defineStream(t, ts, "orders")
	valid := appendSnapshotPayload(nil, s.exportPayload())
	corrupt := func(mut func(b []byte)) []byte {
		b := bytes.Clone(valid)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"empty":            {},
		"truncated":        valid[:len(valid)-3],
		"trailing garbage": append(bytes.Clone(valid), 0),
		"negative counter": corrupt(func(b []byte) { b[7] = 0x80 }),
		"stream count lies": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[32:], 1<<30)
		}),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeSnapshotPayload(body); err == nil {
				t.Fatalf("decoder accepted %s", name)
			}
		})
	}
	t.Run("unsorted names", func(t *testing.T) {
		p := s.exportPayload()
		p.streams = append(p.streams, p.streams[0]) // duplicate name "orders"
		if _, err := decodeSnapshotPayload(appendSnapshotPayload(nil, p)); err == nil {
			t.Fatal("decoder accepted duplicate stream names")
		}
	})
	t.Run("non-json config", func(t *testing.T) {
		p := s.exportPayload()
		p.streams[0].config = []byte("{not json")
		if _, err := decodeSnapshotPayload(appendSnapshotPayload(nil, p)); err == nil {
			t.Fatal("decoder accepted a non-JSON defining observe")
		}
	})
}

// TestRecoveryFallsBackPastTornGeneration: recovery skips a torn newest
// file AND a valid-envelope generation whose payload fails to apply,
// landing on the newest generation that fully restores.
func TestRecoveryFallsBackPastTornGeneration(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := snapServer(t, dir, nil)
	defineStream(t, ts1, "orders")
	gen1, err := s1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Tear the newest generation's file mid-payload.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ents[len(ents)-1]
	pathNewest := dir + "/" + newest.Name()
	b, err := os.ReadFile(pathNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathNewest, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := snapServer(t, dir, nil)
	_ = s2
	var h HealthResponse
	getJSON(t, ts2, "/v1/healthz", &h)
	if h.SnapshotGen != gen1 || h.Restored != 1 {
		t.Fatalf("restored generation=%d streams=%d, want fallback to generation %d with 1 stream", h.SnapshotGen, h.Restored, gen1)
	}
}

// flakyFS is a switchable faultinject.FS: while failing, every file write
// errors — a full disk that later clears, without probabilistic plans.
type flakyFS struct {
	fail atomic.Bool
}

func (f *flakyFS) MkdirAll(path string, perm os.FileMode) error {
	return faultinject.OS.MkdirAll(path, perm)
}
func (f *flakyFS) CreateTemp(dir, pattern string) (faultinject.File, error) {
	if f.fail.Load() {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: os.ErrPermission}
	}
	return faultinject.OS.CreateTemp(dir, pattern)
}
func (f *flakyFS) Rename(oldpath, newpath string) error {
	return faultinject.OS.Rename(oldpath, newpath)
}
func (f *flakyFS) Remove(path string) error                   { return faultinject.OS.Remove(path) }
func (f *flakyFS) ReadFile(path string) ([]byte, error)       { return faultinject.OS.ReadFile(path) }
func (f *flakyFS) ReadDir(path string) ([]fs.DirEntry, error) { return faultinject.OS.ReadDir(path) }
func (f *flakyFS) SyncDir(path string) error                  { return faultinject.OS.SyncDir(path) }

// TestDegradedMode: persistent snapshot failures flip the server to
// degraded — optimization endpoints shed with 503 + Retry-After and code
// "degraded", /v1/readyz goes 503 while /v1/healthz stays 200, cached
// provisions still answer, binary ingest stays open — and one successful
// snapshot restores readiness.
func TestDegradedMode(t *testing.T) {
	fsys := &flakyFS{}
	s, ts := snapServer(t, t.TempDir(), fsys)
	defineStream(t, ts, "orders")

	// Warm the provision cache while healthy.
	preq := ProvisionRequest{
		Workload: oltpObserveSpec(1, 0),
		Grid: GridSpec{Devices: []GridDeviceSpec{
			{Class: "hdd-raid0", Counts: []int{1}},
			{Class: "hssd", Counts: []int{0, 1}},
		}},
		SLA: 0.25,
	}
	var presp ProvisionResponse
	if status := post(t, ts, "/v1/provision", preq, &presp); status != http.StatusOK {
		t.Fatalf("warm provision: status=%d", status)
	}

	fsys.fail.Store(true)
	for i := 0; i < degradeAfter; i++ {
		if _, err := s.Snapshot(); err == nil {
			t.Fatal("snapshot succeeded through a failing filesystem")
		}
	}

	// Degraded: advise sheds with the degraded code...
	status, e := postEnvelope(t, ts, "/v1/advise", AdviseRequest{Workload: oltpObserveSpec(1, 0), SLA: 0.25})
	if status != http.StatusServiceUnavailable || e.Code != "degraded" {
		t.Fatalf("degraded advise: status=%d code=%q, want 503 degraded", status, e.Code)
	}
	// ...readyz is 503 while healthz stays 200...
	resp, err := ts.Client().Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded readyz: status=%d retry-after=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	var h HealthResponse
	getJSON(t, ts, "/v1/healthz", &h)
	if h.Status != "degraded" || h.SnapshotFails != degradeAfter {
		t.Fatalf("degraded healthz: status=%q snapshot_failures=%d", h.Status, h.SnapshotFails)
	}
	// ...the cached provision still answers...
	var cached ProvisionResponse
	if status := post(t, ts, "/v1/provision", preq, &cached); status != http.StatusOK || !cached.Cached {
		t.Fatalf("degraded cached provision: status=%d cached=%v", status, cached.Cached)
	}
	// ...an uncached provision sheds...
	uncached := preq
	uncached.SLA = 0.5
	if status, e := postEnvelope(t, ts, "/v1/provision", uncached); status != http.StatusServiceUnavailable || e.Code != "degraded" {
		t.Fatalf("degraded uncached provision: status=%d code=%q", status, e.Code)
	}
	// ...and binary ingest stays open.
	frames := online.EncodeFrames([]online.Frame{frameFromSpec(oltpObserveSpec(1, 0))})
	if status, _ := postFrames(t, ts, "orders", frames, nil); status != http.StatusAccepted {
		t.Fatalf("degraded binary observe: status=%d, want 202", status)
	}

	// One successful snapshot clears degradation.
	fsys.fail.Store(false)
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("recovery snapshot: %v", err)
	}
	var rz ReadyResponse
	getJSON(t, ts, "/v1/readyz", &rz)
	if !rz.Ready {
		t.Fatalf("still not ready after a successful snapshot: %+v", rz)
	}
}

// TestCloseDrainsIngestQueue is the satellite regression test for the PR 7
// bug: Close used to stop the fold worker immediately, dropping frames the
// server had already acknowledged with 202. Now Close flips to draining
// (rejecting NEW work with 503 "draining"), flushes the queue, and only
// then stops.
func TestCloseDrainsIngestQueue(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defineStream(t, ts, "dr")

	// Stall the fold worker on the stream lock so acknowledged frames sit
	// in the queue when Close begins.
	st, _ := s.lookup("dr")
	st.mu.Lock()
	frame := frameFromSpec(oltpObserveSpec(1, 0))
	batch := online.EncodeFrames([]online.Frame{frame, frame, frame})
	if status, _ := postFrames(t, ts, "dr", batch, nil); status != http.StatusAccepted {
		st.mu.Unlock()
		t.Fatalf("batch status=%d", status)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}

	// Draining: new ingest and new optimizations are refused.
	var e struct {
		Code string `json:"code"`
	}
	if status, _ := postFrames(t, ts, "dr", batch, &e); status != http.StatusServiceUnavailable || e.Code != "draining" {
		st.mu.Unlock()
		t.Fatalf("draining ingest: status=%d code=%q, want 503 draining", status, e.Code)
	}
	if status, env := postEnvelope(t, ts, "/v1/advise", AdviseRequest{Workload: oltpObserveSpec(1, 0), SLA: 0.25}); status != http.StatusServiceUnavailable || env.Code != "draining" {
		st.mu.Unlock()
		t.Fatalf("draining advise: status=%d code=%q", status, env.Code)
	}

	// Release the fold: Close must flush all 3 acknowledged frames.
	st.mu.Unlock()
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := s.ingested.Load(); got != 3 {
		t.Fatalf("ingested=%d after drain, want 3 (202-acknowledged frames must not be dropped)", got)
	}
	if got := s.queued.Load(); got != 0 {
		t.Fatalf("queued=%d after drain, want 0", got)
	}
	// Idempotent: the second Close reports the same outcome.
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestCloseDrainDeadline: a fold worker that cannot make progress bounds
// the drain — Close returns an error naming the abandoned frames instead
// of hanging shutdown forever.
func TestCloseDrainDeadline(t *testing.T) {
	s := New(Config{Workers: 2, DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defineStream(t, ts, "stuck")

	st, _ := s.lookup("stuck")
	st.mu.Lock()
	defer st.mu.Unlock()
	batch := online.EncodeFrames([]online.Frame{frameFromSpec(oltpObserveSpec(1, 0))})
	if status, _ := postFrames(t, ts, "stuck", batch, nil); status != http.StatusAccepted {
		t.Fatalf("batch status=%d", status)
	}
	err := s.Close()
	if err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("close error = %v, want a drain-deadline error", err)
	}
}

// TestGuardContainsPanics: guard recovers, counts, and surfaces background
// panics in /v1/healthz — a panicking fold or ticker step cannot kill the
// server.
func TestGuardContainsPanics(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.guard("test", func() { panic("boom") })
	s.guard("test", func() {}) // a healthy step does not count
	var h HealthResponse
	getJSON(t, ts, "/v1/healthz", &h)
	if h.Panics != 1 {
		t.Fatalf("healthz panics=%d, want 1", h.Panics)
	}
}

// FuzzDecodeSnapshot fuzzes the snapshot payload decoder: any input either
// errors or decodes to a payload whose re-encoding is bit-identical — the
// same contract FuzzDecodeExtentFrame pins for the frame wire. (The sealed
// envelope above this layer is checksummed, so mutation fuzzing it is
// vacuous; the envelope has its own unit tests in internal/online.)
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendSnapshotPayload(nil, snapshotPayload{}))
	f.Add(appendSnapshotPayload(nil, snapshotPayload{
		observed: 7, readvised: 1, ingested: 3,
		streams: []streamRecord{{
			name:   "orders",
			objFP:  "fp",
			config: []byte(`{"stream":"orders"}`),
			state:  online.ManagerState{Collector: online.CollectorState{ExtPages: 64}},
		}},
	}))
	// A replicated deployment: one lone copy (a class byte) and one unit on
	// two classes (a flagged mask) in the layout record.
	f.Add(appendSnapshotPayload(nil, snapshotPayload{
		streams: []streamRecord{{
			name:   "htap",
			config: []byte(`{"stream":"htap"}`),
			state: online.ManagerState{
				Layout: catalog.SetLayout{
					1: device.Singleton(device.LSSD),
					2: device.NewClassSet(device.HDD, device.HSSD),
				},
				Collector: online.CollectorState{ExtPages: 64},
			},
		}},
	}))
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := decodeSnapshotPayload(body)
		if err != nil {
			return
		}
		if re := appendSnapshotPayload(nil, p); !bytes.Equal(re, body) {
			t.Fatalf("accepted input does not round-trip: %x -> %x", body, re)
		}
	})
}
