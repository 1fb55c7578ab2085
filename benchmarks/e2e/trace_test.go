package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// handTrace is a recorder with hand-placed spans (nanoseconds):
//
//	0 request        [0, 100ms)
//	1   decode       [10, 30)   child of 0
//	2   search       [20, 50)   child of 0, overlaps decode by 10
//	3     estimate   [25, 45)   child of 2
//	4   encode       [60, 70)   child of 0
//	5 request        [200, 260) second operation, no children
func handTrace() *recorder {
	ms := int64(1e6)
	return &recorder{spans: []span{
		{Name: "request", Start: 0, End: 100 * ms, Parent: -1, Op: 1},
		{Name: "decode", Start: 10 * ms, End: 30 * ms, Parent: 0, Op: 1},
		{Name: "search", Start: 20 * ms, End: 50 * ms, Parent: 0, Op: 1},
		{Name: "estimate", Start: 25 * ms, End: 45 * ms, Parent: 2, Op: 1},
		{Name: "encode", Start: 60 * ms, End: 70 * ms, Parent: 0, Op: 1},
		{Name: "request", Start: 200 * ms, End: 260 * ms, Parent: -1, Op: 2},
	}}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	self := handTrace().selfTimesMS()
	// request 1: children cover [10,50) and [60,70) = 50ms of 100ms — the
	// decode/search overlap is counted once. Grandchildren do not count.
	want := map[string][]float64{
		"request":  {50, 60},
		"decode":   {20},
		"search":   {10}, // 30ms minus estimate's 20ms
		"estimate": {20},
		"encode":   {10},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: self times %v, want %v", name, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s[%d]: self time %v ms, want %v", name, i, got[i], w[i])
			}
		}
	}
	if d := handTrace().durationsMS("request"); len(d) != 2 || d[0] != 100 || d[1] != 60 {
		t.Errorf("durations of request = %v, want [100 60]", d)
	}
}

func TestRecorderNestsAndWrites(t *testing.T) {
	r := newRecorder()
	r.nextOp()
	outer := r.begin("outer")
	if err := r.in("inner", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r.end(outer)
	if len(r.spans) != 2 || r.spans[1].Parent != 0 || r.spans[0].Parent != -1 || r.spans[1].Op != 1 {
		t.Fatalf("spans = %+v", r.spans)
	}
	if r.spans[0].Start > r.spans[1].Start || r.spans[1].End > r.spans[0].End {
		t.Fatalf("inner span not inside outer: %+v", r.spans)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := r.write(path, map[string]any{"seed": 1}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Header map[string]any `json:"header"`
		Spans  []span         `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.Spans) != 2 || doc.Spans[1].Name != "inner" || doc.Header["seed"] != float64(1) {
		t.Fatalf("trace file = %+v", doc)
	}

	// A nil recorder is the untraced path: it records nothing and still
	// runs the function.
	var none *recorder
	ran := false
	none.nextOp()
	id := none.begin("x")
	none.end(id)
	if err := none.in("y", func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatal("nil recorder must run the function")
	}
}
