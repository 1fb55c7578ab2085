package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dotprov/internal/device"
	"dotprov/internal/online"
)

// roundTripFrames is the decoder's defining property: encoding a batch,
// decoding it, and re-encoding the result must reproduce the original
// bytes bit for bit, and the decoded frames must equal the originals.
func roundTripFrames(t *testing.T, frames []online.Frame) {
	t.Helper()
	enc := online.EncodeFrames(frames)
	dec, err := DecodeExtentFrames(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(dec), len(frames))
	}
	for i := range frames {
		if !reflect.DeepEqual(normFrame(dec[i]), normFrame(frames[i])) {
			t.Fatalf("frame %d: decoded %+v != original %+v", i, dec[i], frames[i])
		}
	}
	if re := online.EncodeFrames(dec); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs: %x != %x", re, enc)
	}
}

// normFrame canonicalizes the nil-vs-empty slice distinction, which the
// wire cannot (and need not) preserve.
func normFrame(f online.Frame) online.Frame {
	if len(f.Objects) == 0 {
		f.Objects = nil
	}
	for i := range f.Objects {
		if len(f.Objects[i].Extents) == 0 {
			f.Objects[i].Extents = nil
		}
	}
	return f
}

// frameRoundTripCases are the named batches TestFrameRoundTrip round-trips
// and TestFramesGolden pins byte for byte.
func frameRoundTripCases() map[string][]online.Frame {
	maxExt := make([]float64, 512)
	for i := range maxExt {
		maxExt[i] = float64(i * 3)
	}
	return map[string][]online.Frame{
		"empty window": {{}},
		"scalars only": {{CPU: time.Second, Elapsed: time.Minute, Txns: 42}},
		"objects no extents": {{
			CPU: time.Millisecond, Elapsed: time.Second, Txns: 7,
			Objects: []online.FrameObject{
				{Index: 0, IO: [device.NumIOTypes]float64{100, 200, 3, 0.5}},
				{Index: 2, IO: [device.NumIOTypes]float64{0, 0, 0, 0}},
			},
		}},
		"max extents": {{
			ExtentPages: 128, Elapsed: time.Hour,
			Objects: []online.FrameObject{{Index: 1, Extents: maxExt}},
		}},
		"empty extent histogram": {{
			ExtentPages: 64,
			Objects:     []online.FrameObject{{Index: 0, Extents: nil}},
		}},
		"batch of three": {
			{Txns: 1, Elapsed: time.Second},
			{ExtentPages: 32, Objects: []online.FrameObject{{Index: 0, Extents: []float64{1, 0, 9}}}},
			{CPU: 3 * time.Second, Elapsed: 2 * time.Second},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for name, frames := range frameRoundTripCases() {
		t.Run(name, func(t *testing.T) { roundTripFrames(t, frames) })
	}
}

// frameRejectCases are the named malformed batches TestFrameDecodeRejects
// refuses and TestFramesGolden pins the refusal text of.
func frameRejectCases() map[string][]byte {
	valid := online.EncodeFrames([]online.Frame{{
		ExtentPages: 64, Elapsed: time.Second,
		Objects: []online.FrameObject{{Index: 0, Extents: []float64{1, 2}}},
	}})
	corrupt := func(mut func(b []byte)) []byte {
		b := bytes.Clone(valid)
		mut(b)
		return b
	}
	return map[string][]byte{
		"empty body":         {},
		"truncated prefix":   valid[:3],
		"truncated payload":  valid[:len(valid)-4],
		"trailing garbage":   append(bytes.Clone(valid), 0xff),
		"bad version":        corrupt(func(b []byte) { b[4] = 99 }),
		"reserved non-zero":  corrupt(func(b []byte) { b[6] = 1 }),
		"negative scalar":    corrupt(func(b []byte) { b[15] = 0x80 }), // sign bit of ExtentPages
		"nan io count":       corrupt(func(b []byte) { writeF64(b, 4+40+4, nanBits()) }),
		"bucket count lies":  corrupt(func(b []byte) { b[4+40+4+32] = 0xff }),
		"negative extent":    corrupt(func(b []byte) { writeF64(b, 4+40+4+32+4, f64bits(-1)) }),
		"object count short": corrupt(func(b []byte) { b[40] = 9 }),
	}
}

func TestFrameDecodeRejects(t *testing.T) {
	for name, body := range frameRejectCases() {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeExtentFrames(body); err == nil {
				t.Fatalf("decoder accepted %s", name)
			}
		})
	}
}

func writeF64(b []byte, off int, bits uint64) {
	for i := 0; i < 8; i++ {
		b[off+i] = byte(bits >> (8 * i))
	}
}

func nanBits() uint64          { return 0x7ff8000000000001 }
func f64bits(v float64) uint64 { return math.Float64bits(v) }

// frameFromSpec lowers a WorkloadSpec observation onto a binary frame over
// the spec's own object order — the producer side of the binary path.
func frameFromSpec(spec WorkloadSpec) online.Frame {
	idx := make(map[string]uint32, len(spec.Objects))
	for i, o := range spec.Objects {
		idx[o.Name] = uint32(i)
	}
	f := online.Frame{
		CPU:     time.Duration(spec.CPUMillis * float64(time.Millisecond)),
		Elapsed: time.Duration(spec.ElapsedMillis * float64(time.Millisecond)),
		Txns:    spec.Txns,
	}
	for _, io := range spec.IO {
		var o online.FrameObject
		o.Index = idx[io.Object]
		o.IO[device.SeqRead] = io.SeqRead
		o.IO[device.RandRead] = io.RandRead
		o.IO[device.SeqWrite] = io.SeqWrite
		o.IO[device.RandWrite] = io.RandWrite
		f.Objects = append(f.Objects, o)
	}
	return f
}

// postFrames ships a binary frame batch to /v1/observe and decodes the
// response envelope.
func postFrames(t *testing.T, ts *httptest.Server, stream string, body []byte, out any) (int, http.Header) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/observe?stream="+stream, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", online.ContentTypeFrames)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding binary-observe response: %v", err)
		}
	}
	return resp.StatusCode, resp.Header
}

// waitIngested polls the server until the ingest counter reaches want.
func waitIngested(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.ingested.Load() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("ingested %d frames, want %d", s.ingested.Load(), want)
}

// TestBinaryObserveMatchesJSON runs twin servers over the same stream
// definition and window sequence — one shipped as JSON observations, one
// as binary frames — and requires identical forced re-advise decisions:
// the two wire paths must produce the same profile windows.
func TestBinaryObserveMatchesJSON(t *testing.T) {
	newTwin := func() (*Server, *httptest.Server) {
		s := New(Config{Workers: 2})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { s.Close() })
		return s, ts
	}
	sJSON, tsJSON := newTwin()
	sBin, tsBin := newTwin()
	_ = sJSON

	define := oltpObserveSpec(1, 0)
	shifted := oltpObserveSpec(1, 0.95)

	for _, ts := range []*httptest.Server{tsJSON, tsBin} {
		var out ObserveResponse
		if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "twin", Workload: define, Box: "box1", SLA: 0.25}, &out); status != http.StatusOK || !out.Initialized {
			t.Fatalf("define: status=%d %+v", status, out)
		}
	}

	// Ship three shifted windows down each path.
	for i := 0; i < 3; i++ {
		if status := post(t, tsJSON, "/v1/observe", ObserveRequest{Stream: "twin", Workload: shifted}, nil); status != http.StatusOK {
			t.Fatalf("json observe %d: status=%d", i, status)
		}
	}
	var ack ObserveFramesResponse
	batch := online.EncodeFrames([]online.Frame{frameFromSpec(shifted), frameFromSpec(shifted), frameFromSpec(shifted)})
	if status, _ := postFrames(t, tsBin, "twin", batch, &ack); status != http.StatusAccepted {
		t.Fatalf("binary observe: status=%d", status)
	}
	if ack.Frames != 3 {
		t.Fatalf("binary observe accepted %d frames, want 3", ack.Frames)
	}
	waitIngested(t, sBin, 3)

	// Forced re-advise on both: decisions must match exactly.
	var rvJSON, rvBin ReadviseResponse
	if status := post(t, tsJSON, "/v1/readvise", ReadviseRequest{Stream: "twin", Force: true}, &rvJSON); status != http.StatusOK {
		t.Fatalf("json readvise status=%d", status)
	}
	if status := post(t, tsBin, "/v1/readvise", ReadviseRequest{Stream: "twin", Force: true}, &rvBin); status != http.StatusOK {
		t.Fatalf("binary readvise status=%d", status)
	}
	if rvJSON.Drift.Divergence != rvBin.Drift.Divergence {
		t.Fatalf("divergence differs: json %v, binary %v", rvJSON.Drift.Divergence, rvBin.Drift.Divergence)
	}
	if !reflect.DeepEqual(rvJSON.Layout, rvBin.Layout) {
		t.Fatalf("layouts differ:\njson:   %v\nbinary: %v", rvJSON.Layout, rvBin.Layout)
	}
	if rvJSON.TOCCents != rvBin.TOCCents || rvJSON.Feasible != rvBin.Feasible {
		t.Fatalf("decisions differ: json %+v, binary %+v", rvJSON, rvBin)
	}
}

// TestBinaryObserveErrors covers the binary path's error envelope: a name
// with no defined stream (404), malformed frames (400), out-of-range object
// indexes (400), and extent buckets past the object they address (400).
func TestBinaryObserveErrors(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if status, _ := postFrames(t, ts, "ghost", online.EncodeFrames([]online.Frame{{}}), &e); status != http.StatusNotFound || e.Code != "not_found" {
		t.Fatalf("unknown stream: status=%d code=%q", status, e.Code)
	}

	var out ObserveResponse
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "s", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}, &out); status != http.StatusOK {
		t.Fatalf("define status=%d", status)
	}
	if status, _ := postFrames(t, ts, "s", []byte{1, 2, 3}, &e); status != http.StatusBadRequest || e.Code != "bad_request" {
		t.Fatalf("malformed frames: status=%d code=%q", status, e.Code)
	}
	oob := online.EncodeFrames([]online.Frame{{Objects: []online.FrameObject{{Index: 99}}}})
	if status, _ := postFrames(t, ts, "s", oob, &e); status != http.StatusBadRequest {
		t.Fatalf("out-of-range index: status=%d", status)
	}
	if want := fmt.Sprintf("stream pins %d objects", 3); e.Error == "" || !bytes.Contains([]byte(e.Error), []byte(want)) {
		t.Fatalf("out-of-range error %q does not mention the pinned list size", e.Error)
	}
	// Extent buckets address pages of the pinned object ("wal": 1e9 bytes,
	// 122,071 pages). A frame whose last bucket starts past the object's
	// last page would have the fold grow the histogram to wherever it
	// points — one ~100-byte frame, 64 MB at width 1<<30, a negative index
	// at 1<<62 — so admission refuses it: 400, nothing queued, no fold to
	// panic.
	const walPages = 122071
	extentFrame := func(width int64, buckets int) []byte {
		ext := make([]float64, buckets)
		ext[buckets-1] = 1
		return online.EncodeFrames([]online.Frame{{ExtentPages: width, Objects: []online.FrameObject{{Index: 2, Extents: ext}}}})
	}
	for name, tc := range map[string]struct {
		body []byte
		want int
	}{
		"bucket 1 a terabyte in":       {extentFrame(1<<30, 2), http.StatusBadRequest},
		"width overflowing the bucket": {extentFrame(1<<62, 3), http.StatusBadRequest},
		"bucket starting at the end":   {extentFrame(walPages, 2), http.StatusBadRequest},
		"bucket on the last page":      {extentFrame(walPages-1, 2), http.StatusAccepted},
		"one wide bucket":              {extentFrame(1<<62, 1), http.StatusAccepted},
		"a full histogram":             {extentFrame(128, 512), http.StatusAccepted},
	} {
		e.Code = ""
		if status, _ := postFrames(t, ts, "s", tc.body, &e); status != tc.want || (tc.want == http.StatusBadRequest && e.Code != "bad_request") {
			t.Fatalf("%s: status=%d code=%q, want %d", name, status, e.Code, tc.want)
		}
	}
	waitIngested(t, s, 3)
	var h HealthResponse
	getJSON(t, ts, "/v1/healthz", &h)
	if h.Queued != 0 || h.Ingested != 3 || h.Panics != 0 {
		t.Fatalf("after the hostile frames: queued=%d ingested=%d panics=%d, want 0, 3 and 0", h.Queued, h.Ingested, h.Panics)
	}
}
