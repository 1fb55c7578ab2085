package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// skewWorkload is a hot-headed OLTP spec: one big fact table whose first
// tenth absorbs almost all the heat, declared via extents.
func skewWorkload() WorkloadSpec {
	return WorkloadSpec{
		Objects: []ObjectSpec{
			{Name: "facts", SizeBytes: 24e9, Extents: []ExtentSpec{
				{SizeBytes: 2.4e9, Heat: 900},
				{SizeBytes: 21.6e9, Heat: 10},
			}},
			{Name: "facts_pkey", Kind: "index", Table: "facts", SizeBytes: 3e9},
		},
		IO: []IOSpec{
			{Object: "facts", RandRead: 5e5, SeqRead: 2.5e4, SeqWrite: 1e4},
			{Object: "facts_pkey", RandRead: 1.2e5},
		},
		CPUMillis: 50,
	}
}

// TestAdvisePartitionGranularity: /advise with granularity=partition
// splits the declared hot head from the cold tail and lands them on
// different classes; the same request at object granularity keeps the
// table whole and pays more storage.
func TestAdvisePartitionGranularity(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()

	var objResp AdviseResponse
	if code := post(t, ts, "/v1/advise", AdviseRequest{Workload: skewWorkload(), Box: "box2", SLA: 0.2}, &objResp); code != http.StatusOK {
		t.Fatalf("object advise: status %d", code)
	}
	if !objResp.Feasible || objResp.Granularity != "object" {
		t.Fatalf("object advise: %+v", objResp)
	}

	var partResp AdviseResponse
	req := AdviseRequest{Workload: skewWorkload(), Box: "box2", SLA: 0.2, Granularity: "partition"}
	if code := post(t, ts, "/v1/advise", req, &partResp); code != http.StatusOK {
		t.Fatalf("partition advise: status %d", code)
	}
	if !partResp.Feasible || partResp.Granularity != "partition" {
		t.Fatalf("partition advise: %+v", partResp)
	}
	if partResp.Units <= 2 {
		t.Fatalf("expected >2 units, got %d", partResp.Units)
	}
	if partResp.SplitObjects == 0 {
		t.Fatalf("expected the fact table to split, layout: %v", partResp.Layout)
	}
	classes := map[string]bool{}
	unitKeys := 0
	for name, cls := range partResp.Layout {
		if strings.HasPrefix(name, "facts[") {
			classes[cls] = true
			unitKeys++
		}
	}
	if unitKeys < 2 || len(classes) < 2 {
		t.Fatalf("expected facts units on multiple classes, layout: %v", partResp.Layout)
	}
	if partResp.TOCCents >= objResp.TOCCents {
		t.Fatalf("partitioned TOC %g not below object-granular %g", partResp.TOCCents, objResp.TOCCents)
	}

	var bad apiErrorProbe
	if code := post(t, ts, "/v1/advise", AdviseRequest{Workload: skewWorkload(), SLA: 0.5, Granularity: "page"}, &bad); code != http.StatusBadRequest {
		t.Fatalf("bad granularity: status %d, want 400", code)
	}
}

type apiErrorProbe struct {
	Error string `json:"error"`
}

// TestObservePartitionedStream: a stream defined at partition granularity
// advises unit layouts and its re-advises account migration per unit.
func TestObservePartitionedStream(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()

	w := skewWorkload()
	w.Txns = 5000
	w.ElapsedMillis = 1000
	var init ObserveResponse
	code := post(t, ts, "/v1/observe", ObserveRequest{
		Stream: "skew", Workload: w, Box: "box2", SLA: 0.2, Granularity: "partition",
	}, &init)
	if code != http.StatusOK {
		t.Fatalf("init observe: status %d", code)
	}
	if !init.Initialized || !init.Feasible || init.Granularity != "partition" {
		t.Fatalf("init observe: %+v", init)
	}
	split := false
	for name := range init.Layout {
		if strings.HasPrefix(name, "facts[") {
			split = true
		}
	}
	if !split {
		t.Fatalf("initial layout not unit-granular: %v", init.Layout)
	}

	// Second window: the tail heats up (same schema, shifted profile).
	w2 := skewWorkload()
	w2.Txns = 5000
	w2.ElapsedMillis = 1000
	w2.IO = []IOSpec{
		{Object: "facts", RandRead: 5e5, SeqRead: 5e5, SeqWrite: 1e4},
		{Object: "facts_pkey", RandRead: 1.2e5},
	}
	var obs ObserveResponse
	if code := post(t, ts, "/v1/observe", ObserveRequest{Stream: "skew", Workload: w2}, &obs); code != http.StatusOK {
		t.Fatalf("second observe: status %d", code)
	}
	if obs.Granularity != "partition" {
		t.Fatalf("second observe granularity %q", obs.Granularity)
	}

	var re ReadviseResponse
	if code := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: "skew", Force: true}, &re); code != http.StatusOK {
		t.Fatalf("readvise: status %d", code)
	}
	if re.Granularity != "partition" {
		t.Fatalf("readvise granularity %q", re.Granularity)
	}
	if re.ReAdvised {
		// When the drifted profile moves units, the accounting must be
		// per-unit: strictly fewer bytes than the whole database unless
		// every unit moved.
		if re.MovedObjects == 0 || re.MovedBytes <= 0 {
			t.Fatalf("re-advise adopted a layout without migration accounting: %+v", re)
		}
	}
}

// TestPartitioningExtentFolding: wire extents are laid out on cumulative
// byte offsets — sub-page slices fold their heat into the extent owning
// that page instead of inflating later boundaries or dropping trailing
// heat.
func TestPartitioningExtentFolding(t *testing.T) {
	comp, err := compileWorkload(WorkloadSpec{
		Objects: []ObjectSpec{
			{Name: "t", SizeBytes: 16384, Extents: []ExtentSpec{
				{SizeBytes: 100, Heat: 5},
				{SizeBytes: 100, Heat: 7},
				{SizeBytes: 16184, Heat: 100},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := comp.partitioning()
	if err != nil {
		t.Fatal(err)
	}
	obj := comp.cat.Lookup("t")
	var heat float64
	var pages int64
	for _, u := range pt.UnitsOf(obj.ID) {
		unit := pt.Unit(u)
		heat += unit.Heat
		pages = unit.EndPage
	}
	if pages != 2 {
		t.Fatalf("units cover %d pages, want 2 (no boundary inflation)", pages)
	}
	if heat < 0.999999 || heat > 1.000001 {
		t.Fatalf("declared heat not preserved: sum %g", heat)
	}
}

// TestExtentsOverDeclarationRejected: extents summing past the object's
// size are a 400-class spec error, not something to silently clamp.
func TestExtentsOverDeclarationRejected(t *testing.T) {
	_, err := compileWorkload(WorkloadSpec{
		Objects: []ObjectSpec{
			{Name: "t", SizeBytes: 1e9, Extents: []ExtentSpec{
				{SizeBytes: 8e8, Heat: 1},
				{SizeBytes: 8e8, Heat: 1},
			}},
		},
	})
	if err == nil {
		t.Fatal("expected over-declared extents to be rejected")
	}
}
