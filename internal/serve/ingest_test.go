package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"dotprov/internal/online"
)

// TestIngestBackpressure fills the bounded ingest queue and asserts the
// contract: overflowing batches shed whole with 429 + Retry-After and the
// "shed" envelope code, /v1/healthz counts sheds and folded frames, and
// the stream's windows afterwards reflect exactly the accepted subset —
// shedding never corrupts or partially applies a batch.
func TestIngestBackpressure(t *testing.T) {
	s := New(Config{Workers: 2, IngestQueue: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out ObserveResponse
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "bp", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}, &out); status != http.StatusOK || !out.Initialized {
		t.Fatalf("define: status=%d %+v", status, out)
	}
	windowsAfterDefine := out.Windows

	// Stall the background fold: the worker blocks acquiring the stream
	// lock inside ingestFrame, so admitted frames keep their queue
	// reservations and the bound fills deterministically.
	st, _ := s.lookup("bp")
	if st == nil {
		t.Fatal("stream not registered")
	}
	st.mu.Lock()
	unlocked := false
	defer func() {
		if !unlocked {
			st.mu.Unlock()
		}
	}()

	frame := frameFromSpec(oltpObserveSpec(1, 0))
	one := online.EncodeFrames([]online.Frame{frame})
	two := online.EncodeFrames([]online.Frame{frame, frame})

	// 1 + 2 frames fill the depth-3 queue.
	if status, _ := postFrames(t, ts, "bp", one, nil); status != http.StatusAccepted {
		t.Fatalf("first batch status=%d", status)
	}
	if status, _ := postFrames(t, ts, "bp", two, nil); status != http.StatusAccepted {
		t.Fatalf("second batch status=%d", status)
	}

	// The queue is full: the next batch sheds whole, with Retry-After and
	// the shed code, leaving the reservation count untouched.
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	status, hdr := postFrames(t, ts, "bp", one, &e)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow batch status=%d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if e.Code != "shed" {
		t.Fatalf("overflow envelope code=%q, want shed", e.Code)
	}
	if got := s.queued.Load(); got != 3 {
		t.Fatalf("queued=%d after shed, want 3 (shed batches must not hold reservations)", got)
	}

	// Release the fold and wait for the accepted subset to drain.
	st.mu.Unlock()
	unlocked = true
	waitIngested(t, s, 3)

	var h HealthResponse
	getJSON(t, ts, "/v1/healthz", &h)
	if h.Shed != 1 || h.Ingested != 3 {
		t.Fatalf("healthz shed=%d ingested=%d, want 1/3", h.Shed, h.Ingested)
	}
	if h.Queued != 0 {
		t.Fatalf("healthz queued=%d after drain, want 0", h.Queued)
	}

	// No window corruption: exactly the 3 accepted frames became windows —
	// the shed batch left no partial trace.
	st.mu.Lock()
	windows := st.mgr.Stats().WindowsClosed
	st.mu.Unlock()
	if want := windowsAfterDefine + 3; windows != want {
		t.Fatalf("stream closed %d windows, want %d (define + accepted frames)", windows, want)
	}

	// The plane keeps working after a shed: the next batch is accepted.
	if status, _ := postFrames(t, ts, "bp", one, nil); status != http.StatusAccepted {
		t.Fatalf("post-shed batch status=%d", status)
	}
	waitIngested(t, s, 4)
}

// TestIngestQueueDefault pins the default queue depth so operators can
// rely on the documented value.
func TestIngestQueueDefault(t *testing.T) {
	if got := (Config{}).withDefaults().IngestQueue; got != 1024 {
		t.Fatalf("default IngestQueue=%d, want 1024", got)
	}
}
