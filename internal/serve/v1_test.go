package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// jsonBody marshals a request for posting.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// decodeJSONBody decodes a response body regardless of status.
func decodeJSONBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestV1RoutesAndAliases walks the route table: every v1 path is routed and
// carries no deprecation headers, and the unversioned aliases earlier
// releases kept (deprecated since the v1 API) are gone — they answer 404.
func TestV1RoutesAndAliases(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 2}).Handler())
	defer ts.Close()

	for _, rt := range Routes() {
		hit := func(path string) *http.Response {
			t.Helper()
			var (
				resp *http.Response
				err  error
			)
			if rt.Method == http.MethodGet {
				resp, err = ts.Client().Get(ts.URL + path)
			} else {
				// An empty body exercises routing + envelope, not the
				// endpoint logic: every POST endpoint rejects it with 400.
				resp, err = ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(""))
			}
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}

		v1 := hit(rt.Path)
		if v1.StatusCode == http.StatusNotFound || v1.StatusCode == http.StatusMethodNotAllowed {
			t.Fatalf("%s %s not routed: status=%d", rt.Method, rt.Path, v1.StatusCode)
		}
		if v1.Header.Get("Deprecation") != "" {
			t.Fatalf("%s %s carries a Deprecation header", rt.Method, rt.Path)
		}
		if !strings.HasPrefix(rt.Path, "/v1/") {
			t.Fatalf("route %s is not versioned", rt.Path)
		}
		if alias := hit(strings.TrimPrefix(rt.Path, "/v1")); alias.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s answered %d: the unversioned aliases are removed and must 404",
				rt.Method, strings.TrimPrefix(rt.Path, "/v1"), alias.StatusCode)
		}
	}
}

// errEnvelope decodes just the error envelope fields.
type errEnvelope struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// TestErrorEnvelopeCodes asserts the unified {error, code} envelope across
// the failure classes: bad request, unknown stream, schema conflict, and
// stream capacity (which shares 429 with shed but keeps its own code).
func TestErrorEnvelopeCodes(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 2, MaxStreams: 1}).Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		run    func() (int, errEnvelope)
		status int
		code   string
	}{
		{"bad body", func() (int, errEnvelope) {
			var e errEnvelope
			resp, err := ts.Client().Post(ts.URL+"/v1/advise", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			decodeJSONBody(t, resp, &e)
			return resp.StatusCode, e
		}, http.StatusBadRequest, "bad_request"},
		{"unknown stream", func() (int, errEnvelope) {
			return postEnvelope(t, ts, "/v1/readvise", ReadviseRequest{Stream: "ghost"})
		}, http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		status, e := tc.run()
		if status != tc.status || e.Code != tc.code {
			t.Fatalf("%s: status=%d code=%q, want %d %q (error=%q)", tc.name, status, e.Code, tc.status, tc.code, e.Error)
		}
	}

	// Define the single allowed stream, then hit the two distinct 429s.
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "only", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}, nil); status != http.StatusOK {
		t.Fatalf("define status=%d", status)
	}
	if status, e := postEnvelope(t, ts, "/v1/observe", ObserveRequest{Stream: "another", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}); status != http.StatusTooManyRequests || e.Code != "stream_capacity" {
		t.Fatalf("capacity: status=%d code=%q, want 429 stream_capacity", status, e.Code)
	}
	// Changed schema on the existing stream: conflict code.
	changed := oltpObserveSpec(1, 0)
	changed.Objects[0].SizeBytes++
	if status, e := postEnvelope(t, ts, "/v1/observe", ObserveRequest{Stream: "only", Workload: changed}); status != http.StatusConflict || e.Code != "conflict" {
		t.Fatalf("conflict: status=%d code=%q, want 409 conflict", status, e.Code)
	}
}

// postEnvelope posts JSON and decodes the error envelope regardless of
// status.
func postEnvelope(t *testing.T, ts *httptest.Server, path string, req any) (int, errEnvelope) {
	t.Helper()
	body := jsonBody(t, req)
	resp, err := ts.Client().Post(ts.URL+path, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errEnvelope
	decodeJSONBody(t, resp, &e)
	return resp.StatusCode, e
}

// TestParallelStreamsDontSerialize observes many tenant streams
// concurrently — distinct streams take only their own locks, so this is
// clean under -race and every request succeeds (the JSON path's
// concurrency gate is sized up so 503s cannot mask a serialization bug).
func TestParallelStreamsDontSerialize(t *testing.T) {
	const streams = 6
	const windows = 4
	ts := httptest.NewServer(New(Config{Workers: 2, MaxConcurrent: streams * 2, MaxStreams: streams}).Handler())
	defer ts.Close()

	// Define all streams first (definitions run a cold advise; keep them
	// serial so the parallel phase is pure observation).
	for i := 0; i < streams; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: name, Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}, nil); status != http.StatusOK {
			t.Fatalf("define %s: status=%d", name, status)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 0; w < windows; w++ {
				if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: name, Workload: oltpObserveSpec(1, 0)}, nil); status != http.StatusOK {
					t.Errorf("%s window %d: status=%d", name, w, status)
					return
				}
			}
		}()
	}
	wg.Wait()
	var h HealthResponse
	getJSON(t, ts, "/v1/healthz", &h)
	if h.Streams != streams || h.Observed < int64(streams*(windows+1)) {
		t.Fatalf("healthz after parallel observes: %+v", h)
	}
}
