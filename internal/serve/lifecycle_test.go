package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// postCode posts JSON and returns the status and the error envelope's code
// ("" on success). It only calls t.Error, so goroutines may use it.
func postCode(t *testing.T, ts *httptest.Server, path string, req any) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	defer resp.Body.Close()
	var e errEnvelope
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s: decoding error envelope: %v", path, err)
		}
	}
	return resp.StatusCode, e.Code
}

// healthzStreams reads /v1/healthz's stream count. It only calls t.Error,
// so goroutines may use it.
func healthzStreams(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Error(err)
		return 0
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Error(err)
	}
	return h.Streams
}

// TestConcurrentDefinitionsOneStream sends the same defining observe for
// one new name from eight goroutines at once: every request is answered,
// exactly one of them defines the stream and the others are observes of
// it, every window is counted once, and the stream then re-advises.
func TestConcurrentDefinitionsOneStream(t *testing.T) {
	const definers = 8
	ts := httptest.NewServer(New(Config{Workers: 2, MaxConcurrent: definers}).Handler())
	defer ts.Close()

	req := ObserveRequest{Stream: "shared", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}
	outs := make([]ObserveResponse, definers)
	statuses := make([]int, definers)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i] = post(t, ts, "/v1/observe", req, &outs[i])
		}()
	}
	wg.Wait()
	initialized := 0
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Fatalf("definer %d: status=%d, want 200", i, status)
		}
		if outs[i].Initialized {
			initialized++
		}
	}
	if initialized != 1 {
		t.Fatalf("%d responses report initialized, want exactly 1", initialized)
	}
	var h HealthResponse
	getJSON(t, ts, "/v1/healthz", &h)
	if h.Streams != 1 || h.Observed != definers {
		t.Fatalf("healthz: streams=%d observed=%d, want 1 and %d", h.Streams, h.Observed, definers)
	}
	if status := post(t, ts, "/v1/readvise", ReadviseRequest{Stream: "shared", Force: true}, nil); status != http.StatusOK {
		t.Fatalf("forced readvise: status=%d", status)
	}
}

// TestDefinitionSlotAccounting holds a definition to the stream cap: an
// infeasible define takes no slot and leaves no tenant behind, and of two
// concurrent defines racing for the last slot exactly one gets it.
func TestDefinitionSlotAccounting(t *testing.T) {
	s := New(Config{Workers: 2, MaxStreams: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One object larger than every class of box1.
	huge := oltpObserveSpec(1, 0)
	huge.Objects[0].SizeBytes = 1e13
	var out ObserveResponse
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "huge", Workload: huge, Box: "box1", SLA: 0.25}, &out); status != http.StatusOK || out.Initialized {
		t.Fatalf("infeasible define: status=%d %+v, want 200 with initialized false", status, out)
	}
	var fr FleetResponse
	getJSON(t, ts, "/v1/fleet", &fr)
	if fr.Tenants != 0 {
		t.Fatalf("infeasible define left %d tenants: %+v", fr.Tenants, fr.Rollups)
	}
	if status, e := postEnvelope(t, ts, "/v1/readvise", ReadviseRequest{Stream: "huge", Force: true}); status != http.StatusNotFound {
		t.Fatalf("readvise of an infeasible define: status=%d code=%q, want 404", status, e.Code)
	}
	defineTenant(t, ts, "fits", oltpObserveSpec(1, 0))

	// Two new names race for the one slot of a fresh server.
	s2 := New(Config{Workers: 2, MaxStreams: 1})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	done := make(chan struct{})
	maxStreams := make(chan int)
	go func() {
		most := 0
		for {
			most = max(most, healthzStreams(t, ts2))
			select {
			case <-done:
				maxStreams <- most
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	statuses := make([]int, 2)
	codes := make([]string, 2)
	for i, name := range []string{"left", "right"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], codes[i] = postCode(t, ts2, "/v1/observe", ObserveRequest{Stream: name, Workload: oltpObserveSpec(1+float64(i), 0), Box: "box1", SLA: 0.25})
		}()
	}
	wg.Wait()
	close(done)
	if most := <-maxStreams; most > 1 {
		t.Fatalf("healthz reported %d streams under MaxStreams 1", most)
	}
	ok, refused := 0, 0
	for i := range statuses {
		switch {
		case statuses[i] == http.StatusOK:
			ok++
		case statuses[i] == http.StatusTooManyRequests && codes[i] == "stream_capacity":
			refused++
		default:
			t.Fatalf("racing define %d: status=%d code=%q", i, statuses[i], codes[i])
		}
	}
	if ok != 1 || refused != 1 {
		t.Fatalf("racing defines: %d answered 200 and %d 429 stream_capacity, want 1 and 1", ok, refused)
	}
	var h HealthResponse
	getJSON(t, ts2, "/v1/healthz", &h)
	if h.Streams != 1 {
		t.Fatalf("healthz after the race: streams=%d, want 1", h.Streams)
	}
}
