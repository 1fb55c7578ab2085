package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/online"
	"dotprov/internal/plan"
	"dotprov/internal/tpcc"
	"dotprov/internal/workload"
)

// objectSpecs snapshots an engine catalog as the /observe object list.
// Streams pin the object list (sizes included) at definition time, so the
// e2e captures it once and only varies the per-window observation.
func objectSpecs(cat *catalog.Catalog) []ObjectSpec {
	var objs []ObjectSpec
	// Tables first, each followed by its indexes (the wire contract:
	// indexes name their owning table, declared after it); aux objects
	// last.
	for _, t := range cat.Tables() {
		objs = append(objs, ObjectSpec{Name: t.Name, SizeBytes: t.SizeBytes})
		for _, ix := range cat.TableIndexes(t.ID) {
			objs = append(objs, ObjectSpec{
				Name: ix.Name, Kind: "index", Table: t.Name, SizeBytes: ix.SizeBytes,
			})
		}
	}
	for _, o := range cat.Objects() {
		if o.Kind == catalog.KindTemp || o.Kind == catalog.KindLog {
			objs = append(objs, ObjectSpec{
				Name: o.Name, Kind: o.Kind.String(), SizeBytes: o.SizeBytes,
			})
		}
	}
	return objs
}

// observeSpec pairs the pinned object list with one closed profile window
// (I/O counts, CPU/elapsed/txns).
func observeSpec(cat *catalog.Catalog, objs []ObjectSpec, w online.Window) WorkloadSpec {
	spec := WorkloadSpec{Objects: objs}
	for id, v := range w.Profile {
		o := cat.Object(id)
		if o == nil {
			continue
		}
		spec.IO = append(spec.IO, IOSpec{
			Object:    o.Name,
			SeqRead:   v[device.SeqRead],
			RandRead:  v[device.RandRead],
			SeqWrite:  v[device.SeqWrite],
			RandWrite: v[device.RandWrite],
		})
	}
	spec.CPUMillis = float64(w.CPU) / float64(time.Millisecond)
	spec.ElapsedMillis = float64(w.Elapsed) / float64(time.Millisecond)
	spec.Txns = w.Txns
	return spec
}

// applyLayout installs a name → class wire layout on the engine.
func applyLayout(t *testing.T, db *engine.DB, wire map[string]string) {
	t.Helper()
	l := make(catalog.Layout, len(wire))
	for name, clsName := range wire {
		o := db.Cat.Lookup(name)
		if o == nil {
			t.Fatalf("layout names unknown object %q", name)
		}
		cls, err := device.ParseClass(clsName)
		if err != nil {
			t.Fatal(err)
		}
		l[o.ID] = cls
	}
	if err := db.SetLayout(l); err != nil {
		t.Fatal(err)
	}
}

// htapAnalytics is the scan side of the shifted mix.
func htapAnalytics() *workload.DSS {
	return &workload.DSS{Name: "e2e-analytics", Queries: []*plan.Query{
		{
			Name:   "revenue",
			Tables: []string{"order_line"},
			Aggs:   []plan.Agg{{Func: plan.Sum, Table: "order_line", Column: "ol_amount"}, {Func: plan.Count}},
		},
		{
			Name:   "stock-scan",
			Tables: []string{"stock"},
			Aggs:   []plan.Agg{{Func: plan.Avg, Table: "stock", Column: "s_quantity"}, {Func: plan.Count}},
		},
	}}
}

// TestOnlineEndToEnd is the acceptance test of the online loop: a real
// engine replays a TPC-C stream whose mix shifts to HTAP mid-run, windows
// are shipped to a dotserve instance over HTTP, and the advisor must (a)
// stay quiet on the undrifted windows — zero re-advises, (b) detect the
// drift, (c) re-advise incrementally off the current layout with fewer
// evaluated candidates than a cold search of the same drifted profile, and
// (d) produce a layout whose estimated performance meets the SLA.
func TestOnlineEndToEnd(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 4}).Handler())
	defer ts.Close()

	box := device.Box2()
	db := engine.New(box, 512)
	cfg := tpcc.Config{
		Warehouses: 1, DistrictsPerW: 4, CustomersPerDist: 30,
		Items: 120, OrdersPerDistrict: 30, Seed: 7,
	}
	if err := tpcc.Build(db, cfg); err != nil {
		t.Fatal(err)
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, box.MostExpensive().Class)); err != nil {
		t.Fatal(err)
	}
	col := online.NewCollector(8)
	db.SetTap(col)
	driver := &tpcc.Driver{Cfg: cfg, Workers: 2, Period: 300 * time.Millisecond, Seed: 11}
	analytics := htapAnalytics()
	objs := objectSpecs(db.Cat)

	runWindow := func(htap bool) online.Window {
		t.Helper()
		run, err := driver.Run(db)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := run.Stats.Elapsed
		col.AddCPU(run.CPUTime)
		col.AddTxns(run.Stats.Txns)
		if htap {
			if err := db.Analyze(); err != nil {
				t.Fatal(err)
			}
			db.SetConcurrency(1) // the analytics run as one stream
			for i := 0; i < 3; i++ {
				obs, err := analytics.RunDetailed(db)
				if err != nil {
					t.Fatal(err)
				}
				elapsed += obs.Metrics.Elapsed
			}
		}
		return col.Roll(elapsed)
	}

	observe := func(w online.Window, init bool) ObserveResponse {
		t.Helper()
		req := ObserveRequest{Stream: "e2e", Workload: observeSpec(db.Cat, objs, w)}
		if init {
			req.Box = "box2"
			req.SLA = 0.25
			// Above buffer-pool warm-up noise (~0.16 between a cold first
			// window and a warm second), below the HTAP shift (> 1).
			req.DriftThreshold = 0.35
		}
		var out ObserveResponse
		if status := post(t, ts, "/v1/observe", req, &out); status != http.StatusOK {
			t.Fatalf("observe status = %d", status)
		}
		return out
	}
	readvise := func() ReadviseResponse {
		t.Helper()
		var out ReadviseResponse
		if status := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: "e2e"}, &out); status != http.StatusOK {
			t.Fatalf("readvise status = %d", status)
		}
		return out
	}

	// Warm the buffer pool before the reference window: the first-ever
	// window's cold misses are not representative of steady state.
	runWindow(false)

	// The next window defines the stream and yields the initial layout.
	w1 := runWindow(false)
	out := observe(w1, true)
	if !out.Initialized || !out.Feasible || len(out.Layout) == 0 {
		t.Fatalf("initial observe: %+v", out)
	}
	applyLayout(t, db, out.Layout)

	// Undrifted OLTP windows: zero re-advises.
	for i := 0; i < 2; i++ {
		w := runWindow(false)
		observe(w, false)
		r := readvise()
		if r.ReAdvised {
			t.Fatalf("undrifted window %d re-advised: %+v", i, r)
		}
	}
	var h HealthResponse
	getJSON(t, ts, "/v1/healthz", &h)
	if h.ReAdvised != 0 {
		t.Fatalf("healthz counts %d re-advises before any drift", h.ReAdvised)
	}

	// Shift the mix to HTAP. Drift magnitude grows as the scan share
	// dominates; allow a few windows for the detector to fire, then the
	// re-advise must be incremental and feasible.
	var adopted *ReadviseResponse
	var lastSpec WorkloadSpec
	for i := 0; i < 4 && adopted == nil; i++ {
		w := runWindow(true)
		lastSpec = observeSpec(db.Cat, objs, w)
		observe(w, false)
		r := readvise()
		if r.ReAdvised {
			adopted = &r
		}
	}
	if adopted == nil {
		t.Fatal("HTAP shift never triggered a re-advise")
	}
	if !adopted.Drift.Drifted {
		t.Fatalf("adopted decision without drift: %+v", adopted)
	}
	if !adopted.Incremental {
		t.Fatalf("re-advise was not incremental: %+v", adopted)
	}
	if !adopted.Feasible {
		t.Fatal("adopted layout does not meet the SLA")
	}
	if adopted.MovedObjects == 0 || adopted.MovedBytes <= 0 || adopted.MigrationMillis <= 0 {
		t.Fatalf("missing migration accounting: %+v", adopted)
	}
	if len(adopted.Layout) != len(out.Layout) {
		t.Fatalf("re-advised layout places %d objects, want %d", len(adopted.Layout), len(out.Layout))
	}

	// Fewer evaluated candidates than a cold search of the SAME drifted
	// profile (via /advise, whose Evaluated reports the cold
	// OptimizeBest).
	var coldOut AdviseResponse
	if status := post(t, ts, "/v1/advise", AdviseRequest{Workload: lastSpec, Box: "box2", SLA: 0.25}, &coldOut); status != http.StatusOK {
		t.Fatalf("cold advise status = %d", status)
	}
	if adopted.Evaluated >= coldOut.Evaluated {
		t.Fatalf("incremental evaluated %d, want fewer than cold's %d", adopted.Evaluated, coldOut.Evaluated)
	}

	applyLayout(t, db, adopted.Layout)

	// The drifted mix is the new reference: replaying it stays quiet.
	w := runWindow(true)
	observe(w, false)
	if r := readvise(); r.ReAdvised {
		t.Fatalf("re-anchored stream re-advised again: %+v", r)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// oltpObserveSpec is a hand-built transactional window over a two-object
// schema, for the pure wire-level tests.
func oltpObserveSpec(scale float64, seqShare float64) WorkloadSpec {
	rand := (1 - seqShare) * 2e5 * scale
	// The scan phase reads an order of magnitude more pages than the
	// transactional phase touches — the economics, not just the mix,
	// change.
	seq := seqShare * 2e6 * scale
	return WorkloadSpec{
		Objects: []ObjectSpec{
			{Name: "orders", SizeBytes: 10e9},
			{Name: "orders_pkey", Kind: "index", Table: "orders", SizeBytes: 1e9},
			{Name: "wal", Kind: "log", SizeBytes: 1e9},
		},
		IO: []IOSpec{
			{Object: "orders", SeqRead: seq, RandRead: rand},
			{Object: "orders_pkey", RandRead: rand},
			{Object: "wal", SeqWrite: 1e4 * scale},
		},
		CPUMillis:     100 * scale,
		Concurrency:   1,
		Txns:          int64(50000 * scale),
		ElapsedMillis: 3.6e6 * scale, // one hour
	}
}

func TestObserveReadviseWire(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 2, MaxStreams: 2}).Handler())
	defer ts.Close()

	// /readvise on an unknown stream: 404.
	if status := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: "nope"}, nil); status != http.StatusNotFound {
		t.Fatalf("unknown stream status = %d, want 404", status)
	}
	// First observe without an SLA: 400.
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "s1", Workload: oltpObserveSpec(1, 0)}, nil); status != http.StatusBadRequest {
		t.Fatalf("missing SLA status = %d, want 400", status)
	}
	// Proper definition.
	var out ObserveResponse
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "s1", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}, &out); status != http.StatusOK {
		t.Fatalf("define status = %d", status)
	}
	if !out.Initialized || !out.Feasible || len(out.Layout) != 3 {
		t.Fatalf("define response: %+v", out)
	}
	// Identical window: no drift reported.
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "s1", Workload: oltpObserveSpec(1, 0)}, &out); status != http.StatusOK {
		t.Fatalf("observe status = %d", status)
	}
	if out.Initialized || out.Drift == nil || out.Drift.Drifted {
		t.Fatalf("identical window response: %+v drift=%+v", out, out.Drift)
	}
	var rv ReadviseResponse
	if status := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: "s1"}, &rv); status != http.StatusOK {
		t.Fatalf("readvise status = %d", status)
	}
	if rv.ReAdvised {
		t.Fatalf("undrifted stream re-advised: %+v", rv)
	}
	// Shift the mix to sequential scans: drift reported, forced or
	// organic re-advise succeeds.
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "s1", Workload: oltpObserveSpec(1, 0.95)}, &out); status != http.StatusOK {
		t.Fatalf("shifted observe status = %d", status)
	}
	if out.Drift == nil || !out.Drift.Drifted {
		t.Fatalf("mix shift not reported: %+v", out.Drift)
	}
	if status := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: "s1"}, &rv); status != http.StatusOK {
		t.Fatalf("readvise status = %d", status)
	}
	if !rv.Drift.Drifted || !rv.Feasible {
		t.Fatalf("drifted readvise: %+v", rv)
	}

	// Changed object list on an existing stream: 409.
	changed := oltpObserveSpec(1, 0)
	changed.Objects[0].SizeBytes = 11e9
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "s1", Workload: changed}, nil); status != http.StatusConflict {
		t.Fatalf("changed objects status = %d, want 409", status)
	}

	// A failed definition must NOT consume a stream slot: a bad SLA is a
	// 400 and the same name can then be defined correctly.
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "s2", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 7}, nil); status != http.StatusBadRequest {
		t.Fatalf("bad SLA definition status = %d, want 400", status)
	}
	var h0 HealthResponse
	getJSON(t, ts, "/v1/healthz", &h0)
	if h0.Streams != 1 {
		t.Fatalf("failed definition leaked a stream slot: %d streams", h0.Streams)
	}

	// Stream capacity: 2 streams allowed, the third is rejected.
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "s2", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.5}, nil); status != http.StatusOK {
		t.Fatal("second stream should fit")
	}
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "s3", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.5}, nil); status != http.StatusTooManyRequests {
		t.Fatalf("third stream status = %d, want 429", status)
	}

	// Healthz reflects the online counters.
	var h HealthResponse
	getJSON(t, ts, "/v1/healthz", &h)
	if h.Streams != 2 || h.Observed < 4 {
		t.Fatalf("healthz online counters: %+v", h)
	}
}

func TestReadviseTicker(t *testing.T) {
	srv := New(Config{Workers: 2, ReadviseEvery: 20 * time.Millisecond,
		Logf: func(string, ...any) {}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out ObserveResponse
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "tick", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}, &out); status != http.StatusOK {
		t.Fatalf("define status = %d", status)
	}
	// Ship a strongly drifted window; the ticker must adopt a new layout
	// without any /readvise call.
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "tick", Workload: oltpObserveSpec(1, 0.95)}, &out); status != http.StatusOK {
		t.Fatalf("drifted observe status = %d", status)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var h HealthResponse
		getJSON(t, ts, "/v1/healthz", &h)
		if h.ReAdvised > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("background ticker never re-advised the drifted stream")
}

// TestObserveDropsZeroCounts holds the JSON observe path to the binary
// one's rule that only positive counts enter a window: an IO entry of all
// zeros leaves the observed window, and so its fingerprint, unchanged.
func TestObserveDropsZeroCounts(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 2}).Handler())
	defer ts.Close()
	withCold := func(spec WorkloadSpec) WorkloadSpec {
		spec.Objects = append(spec.Objects, ObjectSpec{Name: "cold", SizeBytes: 1e9})
		return spec
	}
	drift := make([]*DriftOut, 2)
	for i, name := range []string{"plain", "zeros"} {
		defineTenant(t, ts, name, withCold(oltpObserveSpec(1, 0)))
		spec := withCold(oltpObserveSpec(1, 0.5))
		if name == "zeros" {
			spec.IO = append(spec.IO, IOSpec{Object: "cold"})
		}
		var out ObserveResponse
		if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: name, Workload: spec}, &out); status != http.StatusOK || out.Drift == nil {
			t.Fatalf("observe %s: status=%d %+v", name, status, out)
		}
		drift[i] = out.Drift
	}
	if *drift[0] != *drift[1] {
		t.Fatalf("an all-zero IO entry changed the drift verdict:\nwithout %+v\nwith    %+v", *drift[0], *drift[1])
	}
}
