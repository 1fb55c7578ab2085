package serve

import (
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// htapAdviseSpec mirrors the core HTAP fixture on the wire: a fact table
// hammered by sequential scans AND point lookups at once, the mix where a
// second copy pays on the striped-HDD box.
func htapAdviseSpec() WorkloadSpec {
	return WorkloadSpec{
		Objects: []ObjectSpec{
			{Name: "orders", SizeBytes: 40e9},
			{Name: "orders_pkey", Kind: "index", Table: "orders", SizeBytes: 2e9},
		},
		IO: []IOSpec{
			{Object: "orders", SeqRead: 5e6, RandRead: 150000},
			{Object: "orders_pkey", RandRead: 50000},
		},
	}
}

// TestAdviseReplicated: the replication knob on /advise returns per-unit
// copy lists; on the HTAP box the recommendation genuinely replicates and
// beats the single-placement recommendation on TOC.
func TestAdviseReplicated(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 4}).Handler())
	defer ts.Close()

	var single AdviseResponse
	req := AdviseRequest{Workload: htapAdviseSpec(), Box: "htap", SLA: 0.5}
	if status := post(t, ts, "/v1/advise", req, &single); status != http.StatusOK {
		t.Fatalf("single advise status = %d", status)
	}
	if !single.Feasible {
		t.Fatalf("single placement infeasible: %q", single.Failure)
	}

	var out AdviseResponse
	req.Replication = true
	req.MaxReplicas = 2
	if status := post(t, ts, "/v1/advise", req, &out); status != http.StatusOK {
		t.Fatalf("replicated advise status = %d", status)
	}
	if !out.Feasible {
		t.Fatalf("replicated advise infeasible: %q", out.Failure)
	}
	if out.MaxCopies < 2 || out.ReplicatedCopies < 1 {
		t.Fatalf("no second copy recommended: %+v", out.Replicas)
	}
	if len(out.Replicas) != 2 {
		t.Fatalf("replicas cover %d objects, want 2: %v", len(out.Replicas), out.Replicas)
	}
	for name, copies := range out.Replicas {
		if len(copies) < 1 || len(copies) > 2 {
			t.Fatalf("object %q holds %d copies, want 1..2", name, len(copies))
		}
	}
	if out.Layout != nil {
		t.Fatalf("multi-copy recommendation must not carry a single-class layout: %v", out.Layout)
	}
	if out.TOCCents >= single.TOCCents {
		t.Fatalf("replication did not beat single placement: %v >= %v", out.TOCCents, single.TOCCents)
	}

	// MaxReplicas 1 restricts to singleton sets: the single-placement
	// result, bit for bit, with the layout populated alongside the
	// one-entry copy lists.
	var capped AdviseResponse
	req.MaxReplicas = 1
	if status := post(t, ts, "/v1/advise", req, &capped); status != http.StatusOK {
		t.Fatalf("capped advise status = %d", status)
	}
	if !capped.Feasible || capped.MaxCopies != 1 || capped.ReplicatedCopies != 0 {
		t.Fatalf("capped advise: %+v", capped)
	}
	if math.Float64bits(capped.TOCCents) != math.Float64bits(single.TOCCents) {
		t.Fatalf("MaxReplicas 1 TOC %v != single-placement TOC %v", capped.TOCCents, single.TOCCents)
	}
	if !reflect.DeepEqual(capped.Layout, single.Layout) {
		t.Fatalf("MaxReplicas 1 layout %v != single-placement layout %v", capped.Layout, single.Layout)
	}
	for name, copies := range capped.Replicas {
		if len(copies) != 1 || copies[0] != capped.Layout[name] {
			t.Fatalf("singleton copy list disagrees with layout for %q: %v vs %q",
				name, copies, capped.Layout[name])
		}
	}

	// The exhaustive replicated optimum is served too and is no worse.
	var ex AdviseResponse
	req.MaxReplicas = 2
	req.Exhaustive = true
	if status := post(t, ts, "/v1/advise", req, &ex); status != http.StatusOK {
		t.Fatalf("exhaustive replicated status = %d", status)
	}
	if !ex.Feasible || ex.MaxCopies < 2 || ex.TOCCents > out.TOCCents {
		t.Fatalf("exhaustive replicated: %+v", ex)
	}
	if ex.Search == nil || ex.Search.Candidates <= 0 {
		t.Fatalf("exhaustive replicated reports no search stats: %+v", ex.Search)
	}

	// A copy cap above one prices only the linear cost model: alpha is a
	// 400 there, while a cap of one is single-copy placement and takes it.
	req.Exhaustive = false
	req.Alpha = 1
	if status := post(t, ts, "/v1/advise", req, nil); status != http.StatusBadRequest {
		t.Fatalf("replication+alpha status = %d, want 400", status)
	}
	var discrete AdviseResponse
	req.MaxReplicas = 1
	if status := post(t, ts, "/v1/advise", req, &discrete); status != http.StatusOK {
		t.Fatalf("max_replicas 1 + alpha status = %d, want 200", status)
	}
	if !discrete.Feasible || discrete.MaxCopies != 1 {
		t.Fatalf("max_replicas 1 + alpha: %+v", discrete)
	}
}

// TestAdviseReplicatedPartitioned: replication composes with partition
// granularity — per-unit copy lists under unit names.
func TestAdviseReplicatedPartitioned(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 4}).Handler())
	defer ts.Close()
	wl := htapAdviseSpec()
	wl.Objects[0].Extents = []ExtentSpec{
		{SizeBytes: 4e9, Heat: 900},
		{SizeBytes: 36e9, Heat: 10},
	}
	var out AdviseResponse
	req := AdviseRequest{Workload: wl, Box: "htap", SLA: 0.5,
		Granularity: "partition", Replication: true, MaxReplicas: 2}
	if status := post(t, ts, "/v1/advise", req, &out); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !out.Feasible || out.Granularity != "partition" || out.Units < 3 {
		t.Fatalf("partitioned replicated advise: %+v", out)
	}
	if len(out.Replicas) != out.Units {
		t.Fatalf("replicas cover %d units, want %d: %v", len(out.Replicas), out.Units, out.Replicas)
	}
	if out.MaxCopies < 1 {
		t.Fatalf("missing copy summary: %+v", out)
	}
}

// TestReadviseFleetMemoCoalescing: two tenants defined with the same
// workload shape drift the same way; the second tenant's re-advise is
// answered by the fleet re-advise memo — zero fresh searches — and adopts
// the identical decision.
func TestReadviseFleetMemoCoalescing(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 2, MaxStreams: 4}).Handler())
	defer ts.Close()

	define := func(stream string) {
		t.Helper()
		var out ObserveResponse
		req := ObserveRequest{Stream: stream, Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}
		if status := post(t, ts, "/v1/observe", req, &out); status != http.StatusOK {
			t.Fatalf("define %s status = %d", stream, status)
		}
		if !out.Initialized || !out.Feasible {
			t.Fatalf("define %s: %+v", stream, out)
		}
	}
	observeShift := func(stream string) {
		t.Helper()
		req := ObserveRequest{Stream: stream, Workload: oltpObserveSpec(1, 0.95)}
		if status := post(t, ts, "/v1/observe", req, nil); status != http.StatusOK {
			t.Fatalf("shift %s status = %d", stream, status)
		}
	}
	readvise := func(stream string) ReadviseResponse {
		t.Helper()
		var out ReadviseResponse
		if status := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: stream}, &out); status != http.StatusOK {
			t.Fatalf("readvise %s status = %d", stream, status)
		}
		return out
	}
	health := func() HealthResponse {
		t.Helper()
		var h HealthResponse
		getJSON(t, ts, "/v1/healthz", &h)
		return h
	}

	define("t1")
	define("t2")
	h0 := health()
	if h0.MemoMisses != 1 || h0.MemoHits != 1 {
		t.Fatalf("initial-advise memo: hits=%d misses=%d, want 1 and 1", h0.MemoHits, h0.MemoMisses)
	}

	// Both tenants drift identically: same observed-aggregate fingerprint,
	// same deployed layout, same configuration — one re-advise search total.
	observeShift("t1")
	observeShift("t2")
	rv1 := readvise("t1")
	if !rv1.Drift.Drifted || !rv1.Feasible || !rv1.ReAdvised {
		t.Fatalf("t1 drifted readvise: %+v", rv1)
	}
	h1 := health()
	searches := h1.MemoMisses - h0.MemoMisses
	if searches < 1 {
		t.Fatalf("t1's re-advise ran no memoized search: %+v", h1)
	}

	rv2 := readvise("t2")
	if !rv2.ReAdvised || !rv2.Feasible {
		t.Fatalf("t2 drifted readvise: %+v", rv2)
	}
	h2 := health()
	if h2.MemoMisses != h1.MemoMisses {
		t.Fatalf("t2's re-advise missed the memo: misses %d -> %d", h1.MemoMisses, h2.MemoMisses)
	}
	if h2.MemoHits != h1.MemoHits+searches {
		t.Fatalf("t2's re-advise hits = %d, want %d", h2.MemoHits, h1.MemoHits+searches)
	}
	if !reflect.DeepEqual(rv1.Layout, rv2.Layout) {
		t.Fatalf("coalesced decisions disagree: %v vs %v", rv1.Layout, rv2.Layout)
	}
	if math.Float64bits(rv1.TOCCents) != math.Float64bits(rv2.TOCCents) {
		t.Fatalf("coalesced TOC differs: %v vs %v", rv1.TOCCents, rv2.TOCCents)
	}
	if rv1.MovedObjects != rv2.MovedObjects || rv1.MovedBytes != rv2.MovedBytes {
		t.Fatalf("per-tenant migration accounting differs on identical deployments: %+v vs %+v", rv1, rv2)
	}
}
