package obsclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dotprov/internal/online"
)

// frameSink is an httptest handler that decodes delivered batches and
// scripts its responses: each call pops the next status from script (an
// empty script answers 202 forever).
type frameSink struct {
	mu      sync.Mutex
	frames  []online.Frame
	batches int
	script  []int
	headers []http.Header // response headers per scripted status, optional
	block   chan struct{} // when non-nil, requests wait on it before answering
}

func (fs *frameSink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if fs.block != nil {
		<-fs.block
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if r.Header.Get("Content-Type") != online.ContentTypeFrames {
		http.Error(w, "wrong content type", http.StatusUnsupportedMediaType)
		return
	}
	status := http.StatusAccepted
	if len(fs.script) > 0 {
		status = fs.script[0]
		fs.script = fs.script[1:]
		if len(fs.headers) > 0 {
			for k, vs := range fs.headers[0] {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			fs.headers = fs.headers[1:]
		}
	}
	if status != http.StatusAccepted {
		w.WriteHeader(status)
		return
	}
	body := make([]byte, 0, 1024)
	buf := make([]byte, 4096)
	for {
		n, err := r.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	frames, err := online.DecodeFrames(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fs.frames = append(fs.frames, frames...)
	fs.batches++
	w.WriteHeader(http.StatusAccepted)
}

func (fs *frameSink) got() ([]online.Frame, int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]online.Frame(nil), fs.frames...), fs.batches
}

// seqFrame builds a distinguishable valid frame: Txns carries the sequence
// number so delivery order is checkable on the far side.
func seqFrame(i int) online.Frame {
	return online.Frame{CPU: time.Millisecond, Elapsed: 2 * time.Millisecond, Txns: int64(i)}
}

func newTestClient(t *testing.T, url string, mut func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		BaseURL:    url,
		Stream:     "s1",
		MinBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Seed:       1,
		Logf:       t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func flush(t *testing.T, c *Client) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestClientDeliversInOrder(t *testing.T) {
	sink := &frameSink{}
	ts := httptest.NewServer(sink)
	defer ts.Close()
	c := newTestClient(t, ts.URL, func(cfg *Config) { cfg.MaxBatch = 4 })
	const n = 10
	for i := 0; i < n; i++ {
		if !c.Observe(seqFrame(i)) {
			t.Fatalf("Observe(%d) refused", i)
		}
	}
	flush(t, c)
	frames, batches := sink.got()
	if len(frames) != n {
		t.Fatalf("delivered %d frames, want %d", len(frames), n)
	}
	for i, f := range frames {
		if f.Txns != int64(i) {
			t.Fatalf("frame %d carries seq %d; order not preserved", i, f.Txns)
		}
	}
	if batches < 3 { // 10 frames at MaxBatch 4 needs >= 3 POSTs
		t.Fatalf("server saw %d batches, want >= 3", batches)
	}
	st := c.Stats()
	if st.Enqueued != n || st.SentFrames != n || st.Dropped != 0 || st.Rejected != 0 {
		t.Fatalf("stats %+v, want %d enqueued and sent, none lost", st, n)
	}
	if st.SentBatches != int64(batches) {
		t.Fatalf("client counted %d batches, server saw %d", st.SentBatches, batches)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	sink := &frameSink{script: []int{http.StatusInternalServerError, http.StatusBadGateway}}
	ts := httptest.NewServer(sink)
	defer ts.Close()
	c := newTestClient(t, ts.URL, nil)
	c.Observe(seqFrame(0))
	c.Observe(seqFrame(1))
	flush(t, c)
	frames, _ := sink.got()
	if len(frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(frames))
	}
	st := c.Stats()
	if st.Retries < 2 {
		t.Fatalf("stats %+v: want >= 2 retries for two scripted 5xx answers", st)
	}
	if st.SentFrames != 2 || st.Dropped != 0 || st.Rejected != 0 {
		t.Fatalf("stats %+v: both frames must eventually land", st)
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	h := http.Header{}
	h.Set("Retry-After", "3600")
	sink := &frameSink{script: []int{http.StatusTooManyRequests}, headers: []http.Header{h}}
	ts := httptest.NewServer(sink)
	defer ts.Close()
	// MaxBackoff clamps the (absurd) hour-long hint, so the test proves
	// both that the hint is parsed and that it cannot park the client.
	c := newTestClient(t, ts.URL, nil)
	c.Observe(seqFrame(0))
	flush(t, c)
	if frames, _ := sink.got(); len(frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(frames))
	}
	if st := c.Stats(); st.Retries != 1 || st.SentFrames != 1 {
		t.Fatalf("stats %+v: want exactly one 429 retry then delivery", st)
	}
}

func TestClientDropsRejectedBatch(t *testing.T) {
	sink := &frameSink{script: []int{http.StatusNotFound}}
	ts := httptest.NewServer(sink)
	defer ts.Close()
	c := newTestClient(t, ts.URL, func(cfg *Config) { cfg.MaxBatch = 2 })
	c.Observe(seqFrame(0))
	c.Observe(seqFrame(1))
	flush(t, c)
	// The rejected batch is gone; a later frame still flows.
	c.Observe(seqFrame(2))
	flush(t, c)
	frames, _ := sink.got()
	if len(frames) != 1 || frames[0].Txns != 2 {
		t.Fatalf("delivered %v, want only the post-rejection frame (seq 2)", frames)
	}
	st := c.Stats()
	if st.Rejected != 2 || st.Retries != 0 {
		t.Fatalf("stats %+v: want the 404 batch counted rejected, never retried", st)
	}
}

func TestClientShedsOldestUnderPressure(t *testing.T) {
	release := make(chan struct{})
	sink := &frameSink{block: release}
	ts := httptest.NewServer(sink)
	defer ts.Close()
	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.MaxBuffer = 2
		cfg.MaxBatch = 1
	})
	// Frame 0 goes in flight (the server holds it); the 2-frame buffer then
	// sheds oldest as 1..4 arrive, keeping only 3 and 4.
	c.Observe(seqFrame(0))
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		inflight := c.inflight
		c.mu.Unlock()
		if inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frame 0 never went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= 4; i++ {
		c.Observe(seqFrame(i))
	}
	close(release)
	flush(t, c)
	frames, _ := sink.got()
	want := []int64{0, 3, 4}
	if len(frames) != len(want) {
		t.Fatalf("delivered %d frames, want %d (%v)", len(frames), len(want), frames)
	}
	for i, w := range want {
		if frames[i].Txns != w {
			t.Fatalf("frame %d carries seq %d, want %d", i, frames[i].Txns, w)
		}
	}
	st := c.Stats()
	if st.Dropped != 2 {
		t.Fatalf("stats %+v: want exactly the 2 shed frames counted dropped", st)
	}
}

func TestClientCloseAbandonsBuffered(t *testing.T) {
	release := make(chan struct{})
	sink := &frameSink{block: release}
	ts := httptest.NewServer(sink)
	defer ts.Close()
	defer close(release)
	c := newTestClient(t, ts.URL, func(cfg *Config) { cfg.MaxBatch = 1 })
	for i := 0; i < 3; i++ {
		c.Observe(seqFrame(i))
	}
	c.Close()
	if c.Observe(seqFrame(9)) {
		t.Fatal("Observe accepted a frame after Close")
	}
	st := c.Stats()
	if st.Dropped+st.SentFrames != 3 {
		t.Fatalf("stats %+v: every enqueued frame must resolve at Close", st)
	}
	if st.Dropped == 0 {
		t.Fatalf("stats %+v: the blocked server cannot have acked all 3", st)
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Stream: "s"}); err == nil {
		t.Fatal("New accepted an empty BaseURL")
	}
	if _, err := New(Config{BaseURL: "http://x"}); err == nil {
		t.Fatal("New accepted an empty Stream")
	}
}

func TestFlushRespectsContext(t *testing.T) {
	release := make(chan struct{})
	sink := &frameSink{block: release}
	ts := httptest.NewServer(sink)
	defer ts.Close()
	defer close(release)
	c := newTestClient(t, ts.URL, nil)
	c.Observe(seqFrame(0))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Flush(ctx); err == nil {
		t.Fatal("Flush returned nil with a frame stuck on a blocked server")
	}
}
