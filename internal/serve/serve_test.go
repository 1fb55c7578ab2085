package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testWorkload is a DSS spec: a scanned table, a hot index, a WAL.
func testWorkload() WorkloadSpec {
	return WorkloadSpec{
		Objects: []ObjectSpec{
			{Name: "orders", SizeBytes: 10e9},
			{Name: "orders_pkey", Kind: "index", Table: "orders", SizeBytes: 1e9},
			{Name: "wal", Kind: "log", SizeBytes: 1e9},
		},
		IO: []IOSpec{
			{Object: "orders", SeqRead: 1e6},
			{Object: "orders_pkey", RandRead: 1e4},
			{Object: "wal", SeqWrite: 1e5},
		},
		CPUMillis: 2000,
	}
}

func testGrid() GridSpec {
	return GridSpec{
		Devices: []GridDeviceSpec{
			{Class: "hdd-raid0", Counts: []int{0, 1}},
			{Class: "lssd", Counts: []int{0, 1}},
			{Class: "hssd", Counts: []int{1}},
		},
		Alphas: []float64{0, 1},
	}
}

// post sends a JSON request and returns the status (0 on transport
// failure). It only calls t.Error, never t.Fatal, so it is safe from
// spawned goroutines (TestConcurrentLoad); callers assert on the status.
func post(t *testing.T, ts *httptest.Server, path string, req any, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return 0
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("%s: decoding response: %v", path, err)
			return 0
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q", h.Status)
	}
}

func TestAdviseRoundTrip(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 4}).Handler())
	defer ts.Close()
	var out AdviseResponse
	status := post(t, ts, "/v1/advise", AdviseRequest{Workload: testWorkload(), Box: "box1", SLA: 0.25}, &out)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !out.Feasible {
		t.Fatalf("expected a feasible layout, failure: %q", out.Failure)
	}
	if len(out.Layout) != 3 {
		t.Fatalf("layout covers %d objects, want 3: %v", len(out.Layout), out.Layout)
	}
	for _, obj := range []string{"orders", "orders_pkey", "wal"} {
		if out.Layout[obj] == "" {
			t.Fatalf("layout misses %q: %v", obj, out.Layout)
		}
	}
	if out.TOCCents <= 0 || out.Evaluated <= 0 {
		t.Fatalf("implausible economics: %+v", out)
	}

	// OLTP variant: throughput comes back.
	wl := testWorkload()
	wl.Txns = 50000
	wl.ElapsedMillis = 60000
	wl.Concurrency = 8
	out = AdviseResponse{}
	if status := post(t, ts, "/v1/advise", AdviseRequest{Workload: wl, Box: "box2", SLA: 0.25}, &out); status != http.StatusOK {
		t.Fatalf("oltp status = %d", status)
	}
	if !out.Feasible || out.ThroughputPerHour <= 0 {
		t.Fatalf("oltp advise: %+v", out)
	}
}

// TestAdviseExhaustive: the exhaustive knob runs the branch-and-bound
// enumeration and reports its search statistics on the wire.
func TestAdviseExhaustive(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 4}).Handler())
	defer ts.Close()
	var out AdviseResponse
	status := post(t, ts, "/v1/advise", AdviseRequest{Workload: testWorkload(), Box: "box1", SLA: 0.25, Exhaustive: true}, &out)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !out.Feasible || out.Search == nil {
		t.Fatalf("exhaustive advise should carry search stats: %+v", out)
	}
	if out.Search.SpaceSize != 27 { // 3 objects x 3 classes
		t.Fatalf("space size %g, want 27", out.Search.SpaceSize)
	}
	if out.Search.Candidates <= 0 || out.Search.Candidates != out.Evaluated {
		t.Fatalf("candidates %d vs evaluated %d", out.Search.Candidates, out.Evaluated)
	}
}

func TestAdviseBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	cases := []AdviseRequest{
		{Workload: testWorkload(), SLA: 0},                                                        // bad SLA
		{Workload: testWorkload(), SLA: 0.5, Box: "box9"},                                         // unknown box
		{Workload: testWorkload(), SLA: 0.5, Classes: []string{"warp-drive"}},                     // unknown class
		{Workload: WorkloadSpec{}, SLA: 0.5},                                                      // no objects
		{Workload: WorkloadSpec{Objects: []ObjectSpec{{Name: "x", Kind: "?"}}}},                   // bad kind (and SLA)
		{Workload: func() WorkloadSpec { w := testWorkload(); w.Txns = 5; return w }(), SLA: 0.5}, // txns without elapsed
	}
	for i, req := range cases {
		if status := post(t, ts, "/v1/advise", req, nil); status != http.StatusBadRequest {
			t.Fatalf("case %d: status = %d, want 400", i, status)
		}
	}
}

func TestProvisionRoundTripAndCache(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 4}).Handler())
	defer ts.Close()
	req := ProvisionRequest{Workload: testWorkload(), Grid: testGrid(), SLA: 0.25}
	var out ProvisionResponse
	if status := post(t, ts, "/v1/provision", req, &out); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(out.Candidates) != 8 {
		t.Fatalf("candidates = %d, want 8 (4 boxes x 2 alphas)", len(out.Candidates))
	}
	if out.Best < 0 || out.Cached {
		t.Fatalf("first sweep: best=%d cached=%v", out.Best, out.Cached)
	}
	best := out.Candidates[out.Best]
	if !best.Feasible || len(best.Layout) != 3 {
		t.Fatalf("best candidate: %+v", best)
	}
	for _, c := range out.Candidates {
		if !c.Feasible && c.Failure == "" {
			t.Fatalf("infeasible candidate %q has no failure reason", c.Name)
		}
	}

	// The identical request is answered from the LRU.
	var cached ProvisionResponse
	if status := post(t, ts, "/v1/provision", req, &cached); status != http.StatusOK {
		t.Fatalf("cached status = %d", status)
	}
	if !cached.Cached {
		t.Fatal("second identical sweep should be served from the cache")
	}
	if cached.Best != out.Best || len(cached.Candidates) != len(out.Candidates) {
		t.Fatal("cached sweep differs from the original")
	}

	// A different SLA misses the cache.
	req.SLA = 0.5
	var other ProvisionResponse
	if status := post(t, ts, "/v1/provision", req, &other); status != http.StatusOK {
		t.Fatalf("other status = %d", status)
	}
	if other.Cached {
		t.Fatal("different SLA must not hit the cache")
	}
}

func TestProvisionBadGrid(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	req := ProvisionRequest{Workload: testWorkload(), SLA: 0.5,
		Grid: GridSpec{Devices: []GridDeviceSpec{{Class: "floppy", Counts: []int{1}}}}}
	if status := post(t, ts, "/v1/provision", req, nil); status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}

	// Regression: an all-zero-count grid (empty universe box) with an OLTP
	// workload must be a 400, not a nil-deref that kills the server.
	wl := testWorkload()
	wl.Txns = 100
	wl.ElapsedMillis = 1000
	req = ProvisionRequest{Workload: wl, SLA: 0.5,
		Grid: GridSpec{Devices: []GridDeviceSpec{{Class: "hdd", Counts: []int{0}}}}}
	if status := post(t, ts, "/v1/provision", req, nil); status != http.StatusBadRequest {
		t.Fatalf("all-zero grid status = %d, want 400", status)
	}
	// The server is still alive.
	if resp, err := ts.Client().Get(ts.URL + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after bad grid: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestConcurrentLoad drives mixed advise/provision/healthz traffic through
// a small concurrency gate; with -race this also verifies the server's
// shared state (cache, counters, budgeted engines) under contention. Every
// response must be a clean 200 or a deliberate 503.
func TestConcurrentLoad(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxConcurrent: 2, Workers: 4}).Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	var saturated, ok, other int64
	var mu sync.Mutex
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var status int
			switch i % 3 {
			case 0:
				// Distinct SLAs defeat the sweep cache, keeping work real.
				sla := 0.1 + float64(i)*0.03
				status = post(t, ts, "/v1/provision", ProvisionRequest{Workload: testWorkload(), Grid: testGrid(), SLA: sla}, nil)
			case 1:
				status = post(t, ts, "/v1/advise", AdviseRequest{Workload: testWorkload(), Box: "box1", SLA: 0.25}, nil)
			default:
				resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				status = resp.StatusCode
			}
			mu.Lock()
			defer mu.Unlock()
			switch status {
			case http.StatusOK:
				ok++
			case http.StatusServiceUnavailable:
				saturated++
			default:
				other++
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("unexpected statuses under load (ok=%d saturated=%d other=%d)", ok, saturated, other)
	}
	if ok == 0 {
		t.Fatal("no request succeeded under load")
	}
	// The counters stay coherent.
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Rejected != saturated {
		t.Fatalf("healthz rejected=%d, observed %d", h.Rejected, saturated)
	}
}

func TestRequestTimeout(t *testing.T) {
	// A nanosecond budget expires before any sweep finishes.
	ts := httptest.NewServer(New(Config{RequestTimeout: time.Nanosecond, Workers: 2}).Handler())
	defer ts.Close()
	status := post(t, ts, "/v1/provision", ProvisionRequest{Workload: testWorkload(), Grid: testGrid(), SLA: 0.25}, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
}

func TestMethodRouting(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/advise")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/advise status = %d, want 405", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/advise", strings.NewReader("{not json"))
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d, want 400", resp.StatusCode)
	}
}
