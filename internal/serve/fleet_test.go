package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dotprov/internal/online"
)

// defineTenant defines one stream over the shared OLTP spec and returns the
// observe response.
func defineTenant(t *testing.T, ts *httptest.Server, name string, spec WorkloadSpec) ObserveResponse {
	t.Helper()
	var out ObserveResponse
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: name, Workload: spec, Box: "box1", SLA: 0.25}, &out); status != http.StatusOK {
		t.Fatalf("define %s: status=%d", name, status)
	}
	if !out.Initialized || !out.Feasible {
		t.Fatalf("define %s: %+v", name, out)
	}
	return out
}

// TestFleetEndpoint walks /v1/fleet through its contract: the empty fleet,
// per-tenant rollups with memo attribution, the single-tenant query, the
// unknown-tenant 404 (unified envelope), bad pagination 400s, and the
// removed unversioned /fleet alias.
func TestFleetEndpoint(t *testing.T) {
	s := New(Config{Workers: 2, MaxStreams: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Empty fleet.
	var fr FleetResponse
	getJSON(t, ts, "/v1/fleet", &fr)
	if fr.Tenants != 0 || len(fr.Rollups) != 0 || fr.Shards != s.cfg.Shards {
		t.Fatalf("empty fleet: %+v", fr)
	}

	// Two equal-workload tenants: the second's initial advise must be a
	// memo hit, and both land identical layouts.
	o1 := defineTenant(t, ts, "alpha", oltpObserveSpec(1, 0))
	o2 := defineTenant(t, ts, "beta", oltpObserveSpec(1, 0))
	if fmt.Sprint(o1.Layout) != fmt.Sprint(o2.Layout) {
		t.Fatalf("equal-workload tenants got different layouts:\n%v\n%v", o1.Layout, o2.Layout)
	}
	// A third tenant with a different workload must miss the memo.
	defineTenant(t, ts, "gamma", oltpObserveSpec(2, 0.5))

	getJSON(t, ts, "/v1/fleet", &fr)
	if fr.Tenants != 3 || fr.Active != 3 || len(fr.Rollups) != 3 {
		t.Fatalf("fleet after 3 defines: %+v", fr)
	}
	if fr.MemoMisses != 2 || fr.MemoHits != 1 {
		t.Fatalf("memo counters: hits=%d misses=%d, want 1 and 2", fr.MemoHits, fr.MemoMisses)
	}
	// Sorted by name; rollup content.
	for i, want := range []string{"alpha", "beta", "gamma"} {
		ru := fr.Rollups[i]
		if ru.Stream != want {
			t.Fatalf("rollup %d is %q, want %q (sorted)", i, ru.Stream, want)
		}
		if ru.State != "active" || !ru.SLAAttained || ru.LastDecision != "advise" {
			t.Fatalf("rollup %s: %+v", want, ru)
		}
		if ru.SLA != 0.25 || ru.Windows < 1 || ru.StorageCentsPerHour <= 0 || ru.TOCCents <= 0 {
			t.Fatalf("rollup %s detail: %+v", want, ru)
		}
		if ru.Shard < 0 || ru.Shard >= s.cfg.Shards {
			t.Fatalf("rollup %s shard %d out of ring [0,%d)", want, ru.Shard, s.cfg.Shards)
		}
		// The storage price is the deployed set layout's, every copy charged.
		st, err := s.loadStream(want)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := st.mgr.CurrentSetLayout().CostCentsPerHour(searchCatalog(st.comp, st.pt), st.mgr.Box())
		if err != nil || ru.StorageCentsPerHour != cost {
			t.Fatalf("rollup %s storage %v cents/hour, deployed set layout prices %v (%v)", want, ru.StorageCentsPerHour, cost, err)
		}
	}
	if fr.Rollups[0].MemoHit || !fr.Rollups[1].MemoHit || fr.Rollups[2].MemoHit {
		t.Fatalf("memo attribution: alpha=%v beta=%v gamma=%v, want false/true/false",
			fr.Rollups[0].MemoHit, fr.Rollups[1].MemoHit, fr.Rollups[2].MemoHit)
	}

	// Single-tenant query.
	getJSON(t, ts, "/v1/fleet?stream=beta", &fr)
	if fr.Tenants != 1 || len(fr.Rollups) != 1 || fr.Rollups[0].Stream != "beta" {
		t.Fatalf("single-tenant query: %+v", fr)
	}

	// Unknown tenant: 404 with the unified envelope.
	resp, err := ts.Client().Get(ts.URL + "/v1/fleet?stream=nope")
	if err != nil {
		t.Fatal(err)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || e.Code != "not_found" || e.Error == "" {
		t.Fatalf("unknown tenant: status=%d envelope=%+v, want 404 not_found", resp.StatusCode, e)
	}

	// Bad pagination: 400 with the envelope.
	for _, q := range []string{"?limit=0", "?limit=9999", "?offset=-1", "?limit=x"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/fleet" + q)
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
			t.Fatalf("%s: status=%d code=%q, want 400 bad_request", q, resp.StatusCode, e.Code)
		}
	}

	// The unversioned alias is gone.
	resp, err = ts.Client().Get(ts.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/fleet answered %d, want 404 (alias removed)", resp.StatusCode)
	}
}

// TestFleetPagination defines 1000 equal-workload tenants (the memo makes
// this cheap: one search, 999 coalesced hits) and pages through the rollup.
func TestFleetPagination(t *testing.T) {
	const tenants = 1000
	s := New(Config{Workers: 2, MaxStreams: tenants})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := oltpObserveSpec(1, 0)
	for i := 0; i < tenants; i++ {
		defineTenant(t, ts, fmt.Sprintf("tenant-%04d", i), spec)
	}
	var h HealthResponse
	getJSON(t, ts, "/v1/healthz", &h)
	if h.MemoMisses != 1 || h.MemoHits != tenants-1 {
		t.Fatalf("memo over %d equal tenants: hits=%d misses=%d, want %d and 1", tenants, h.MemoHits, h.MemoMisses, tenants-1)
	}

	var fr FleetResponse
	// Default page.
	getJSON(t, ts, "/v1/fleet", &fr)
	if fr.Tenants != tenants || len(fr.Rollups) != fleetLimitDefault {
		t.Fatalf("default page: tenants=%d rollups=%d", fr.Tenants, len(fr.Rollups))
	}
	// Walk the whole fleet in pages and reassemble the name list.
	seen := make(map[string]bool, tenants)
	prev := ""
	for off := 0; off < tenants; off += 250 {
		getJSON(t, ts, fmt.Sprintf("/v1/fleet?offset=%d&limit=250", off), &fr)
		if fr.Offset != off || fr.Limit != 250 || len(fr.Rollups) != 250 {
			t.Fatalf("page offset=%d: %+v (%d rollups)", off, fr, len(fr.Rollups))
		}
		for _, ru := range fr.Rollups {
			if ru.Stream <= prev {
				t.Fatalf("page offset=%d not sorted: %q after %q", off, ru.Stream, prev)
			}
			prev = ru.Stream
			seen[ru.Stream] = true
		}
	}
	if len(seen) != tenants {
		t.Fatalf("paging saw %d distinct tenants, want %d", len(seen), tenants)
	}
	// Tail page past the end.
	getJSON(t, ts, fmt.Sprintf("/v1/fleet?offset=%d&limit=250", tenants-50), &fr)
	if len(fr.Rollups) != 50 {
		t.Fatalf("tail page: %d rollups, want 50", len(fr.Rollups))
	}
	getJSON(t, ts, fmt.Sprintf("/v1/fleet?offset=%d&limit=250", tenants+10), &fr)
	if len(fr.Rollups) != 0 {
		t.Fatalf("past-the-end page: %d rollups, want 0", len(fr.Rollups))
	}
}

// waitEvicted polls until the server has evicted at least n streams.
func waitEvicted(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.evicted.Load() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("evicted %d streams, want %d", s.evicted.Load(), n)
}

// TestFleetEvictionRematerialize: an idle tenant is evicted (slot freed,
// state parked), appears as "evicted" in /v1/fleet, and transparently
// rematerializes on its next touch with windows, reference profile and
// deployed layout intact — including across a snapshot restart.
func TestFleetEvictionRematerialize(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 2, MaxStreams: 4, StreamTTL: 30 * time.Millisecond, EvictEvery: 5 * time.Millisecond,
		SnapshotDir: dir, SnapshotEvery: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	defineTenant(t, ts, "idle", oltpObserveSpec(1, 0))
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "idle", Workload: oltpObserveSpec(1, 0)}, nil); status != http.StatusOK {
		t.Fatalf("second window status=%d", status)
	}
	var before ReadviseResponse
	if status := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: "idle", Force: true}, &before); status != http.StatusOK {
		t.Fatalf("pre-eviction readvise status=%d", status)
	}

	waitEvicted(t, s, 1)
	var h HealthResponse
	getJSON(t, ts, "/v1/healthz", &h)
	if h.Streams != 0 || h.Evicted < 1 {
		t.Fatalf("post-eviction health: streams=%d evicted=%d", h.Streams, h.Evicted)
	}
	var fr FleetResponse
	getJSON(t, ts, "/v1/fleet?stream=idle", &fr)
	if fr.Rollups[0].State != "evicted" {
		t.Fatalf("evicted tenant rollup: %+v", fr.Rollups[0])
	}

	// Touching the tenant rematerializes it: same windows, same layout (the
	// repeated identical profile keeps the forced re-advise's answer fixed,
	// so a lost reference or layout would show up here).
	var after ReadviseResponse
	if status := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: "idle", Force: true}, &after); status != http.StatusOK {
		t.Fatalf("post-eviction readvise status=%d", status)
	}
	if fmt.Sprint(after.Layout) != fmt.Sprint(before.Layout) || after.ReAdvised != before.ReAdvised {
		t.Fatalf("rematerialized decision differs:\nbefore %+v\nafter  %+v", before, after)
	}
	getJSON(t, ts, "/v1/healthz", &h)
	// (No Streams assertion here: with the short TTL the janitor may have
	// already evicted the tenant a second time.)
	if h.Rematerialized < 1 {
		t.Fatalf("post-rematerialize health: %+v", h)
	}

	// A snapshot taken now must carry the tenant even if it is evicted
	// again; a restarted server restores it (lazily) and answers the same
	// forced re-advise.
	waitEvicted(t, s, 2)
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Workers: 2, MaxStreams: 4, StreamTTL: time.Hour, SnapshotDir: dir, SnapshotEvery: time.Hour})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	getJSON(t, ts2, "/v1/healthz", &h)
	if h.Restored != 1 {
		t.Fatalf("restart restored %d streams, want 1", h.Restored)
	}
	var revived ReadviseResponse
	if status := post(t, ts2, "/v1/readvise", ReadviseRequest{Stream: "idle", Force: true}, &revived); status != http.StatusOK {
		t.Fatalf("post-restart readvise status=%d", status)
	}
	if fmt.Sprint(revived.Layout) != fmt.Sprint(before.Layout) {
		t.Fatalf("restarted decision differs:\nbefore %+v\nafter  %+v", before, revived)
	}
}

// canonicalReadvise strips the only wall-clock field from a readvise
// response so decisions can be compared across servers.
func canonicalReadvise(t *testing.T, rv ReadviseResponse) string {
	t.Helper()
	rv.PlanMillis = 0
	b, err := json.Marshal(rv)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetShardParity runs the same tenant fleet — defines, binary frame
// windows, forced re-advises — against a 1-shard and a 4-shard server and
// requires bit-identical decisions: shard count is an execution detail,
// never a semantic one.
func TestFleetShardParity(t *testing.T) {
	const tenants = 6
	decide := func(shards int) []string {
		s := New(Config{Workers: 2, Shards: shards, MaxStreams: tenants})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for i := 0; i < tenants; i++ {
			// Workloads vary per tenant so the decisions are not trivially
			// equal, and the drifted mix forces real moves.
			defineTenant(t, ts, fmt.Sprintf("t-%d", i), oltpObserveSpec(1+float64(i%3), 0))
		}
		var folded int64
		for i := 0; i < tenants; i++ {
			spec := oltpObserveSpec(1+float64(i%3), 0.95)
			batch := online.EncodeFrames([]online.Frame{frameFromSpec(spec), frameFromSpec(spec)})
			if status, _ := postFrames(t, ts, fmt.Sprintf("t-%d", i), batch, nil); status != http.StatusAccepted {
				t.Fatalf("frames t-%d: status=%d", i, status)
			}
			folded += 2
		}
		waitIngested(t, s, folded)
		out := make([]string, tenants)
		for i := 0; i < tenants; i++ {
			var rv ReadviseResponse
			if status := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: fmt.Sprintf("t-%d", i), Force: true}, &rv); status != http.StatusOK {
				t.Fatalf("readvise t-%d: status=%d", i, status)
			}
			out[i] = canonicalReadvise(t, rv)
		}
		return out
	}
	one, four := decide(1), decide(4)
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("tenant %d decision differs between 1 and 4 shards:\n1: %s\n4: %s", i, one[i], four[i])
		}
	}
}

// TestRematerializeFailureIsInternal: a parked tenant whose record no longer
// rebuilds is a server fault no retry fixes — every path that touches it
// answers 500 "internal", not the retry-later 429 it used to — while the
// real capacity refusal, a parked tenant waiting for a slot, stays 429
// "stream_capacity".
func TestRematerializeFailureIsInternal(t *testing.T) {
	s := New(Config{Workers: 2, MaxStreams: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	defineTenant(t, ts, "a", oltpObserveSpec(1, 0))
	st, err := s.loadStream("a")
	if err != nil || st == nil {
		t.Fatalf("loadStream: %v %v", st, err)
	}
	s.evictStream(st)
	// The record's fingerprint no longer matches what its config compiles to
	// (a schema the binary reads differently since the record was written).
	s.streamMu.Lock()
	rec := s.parked["a"]
	good := rec.objFP
	rec.objFP = strings.Repeat("0", len(good))
	s.parked["a"] = rec
	s.streamMu.Unlock()

	wantInternal := func(what string, status int, code string) {
		t.Helper()
		if status != http.StatusInternalServerError || code != "internal" {
			t.Fatalf("%s on an unrebuildable tenant: status=%d code=%q, want 500 internal", what, status, code)
		}
	}
	status, e := postEnvelope(t, ts, "/v1/readvise", ReadviseRequest{Stream: "a", Force: true})
	wantInternal("readvise", status, e.Code)
	status, e = postEnvelope(t, ts, "/v1/observe", ObserveRequest{Stream: "a", Workload: oltpObserveSpec(1, 0)})
	wantInternal("JSON observe", status, e.Code)
	var fe errEnvelope
	status, _ = postFrames(t, ts, "a", online.EncodeFrames([]online.Frame{{}}), &fe)
	wantInternal("binary observe", status, fe.Code)

	// Repaired, the record rebuilds — unless another tenant holds the slot.
	s.streamMu.Lock()
	rec.objFP = good
	s.parked["a"] = rec
	s.streamMu.Unlock()
	defineTenant(t, ts, "b", oltpObserveSpec(1, 0))
	if status, e := postEnvelope(t, ts, "/v1/readvise", ReadviseRequest{Stream: "a", Force: true}); status != http.StatusTooManyRequests || e.Code != "stream_capacity" {
		t.Fatalf("readvise with the registry full: status=%d code=%q, want 429 stream_capacity", status, e.Code)
	}
}

// BenchmarkFleetFold measures the ingest fold plane's frame throughput at
// one shard versus one shard per CPU: frames are enqueued directly onto
// the shard queues (bypassing HTTP) and the benchmark clock stops when the
// fold workers have drained them all. scripts/benchguard.sh gates the
// shards-N/shards-1 ratio on multi-core machines.
func BenchmarkFleetFold(b *testing.B) {
	spec := oltpObserveSpec(1, 0)
	frame := frameFromSpec(spec)
	// Give every object a wide extent histogram so the per-frame fold does
	// real aggregation work (the regime shard parallelism exists for).
	frame.ExtentPages = 1 << 8
	for i := range frame.Objects {
		frame.Objects[i].Extents = make([]float64, 64)
		for j := range frame.Objects[i].Extents {
			frame.Objects[i].Extents[j] = float64(j)
		}
	}
	for _, shards := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			const tenants = 16
			s := New(Config{Workers: 1, Shards: shards, MaxStreams: tenants, IngestQueue: 1 << 15})
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			sts := make([]*stream, tenants)
			for i := 0; i < tenants; i++ {
				name := fmt.Sprintf("bench-%02d", i)
				body, err := json.Marshal(ObserveRequest{Stream: name, Workload: spec, Box: "box1", SLA: 0.25})
				if err != nil {
					b.Fatal(err)
				}
				resp, err := ts.Client().Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("define %s: status=%d", name, resp.StatusCode)
				}
				st, err := s.loadStream(name)
				if err != nil || st == nil {
					b.Fatalf("loadStream %s: %v", name, err)
				}
				sts[i] = st
			}
			s.ingestOnce.Do(func() {
				for i := range s.shardQ {
					go s.ingestLoop(i)
				}
			})
			start := s.ingested.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := sts[i%tenants]
				s.queued.Add(1)
				s.shardQ[st.shard] <- ingestItem{st: st, frame: frame}
			}
			for s.ingested.Load()-start < int64(b.N) {
				time.Sleep(50 * time.Microsecond)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}
