package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the recorder's epoch; parent is the index of the
// enclosing span in the recorder (-1 for a root); spans of one replayed
// operation share an op id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory for the traced replay. The replay is
// single-threaded, so the open-span stack needs no lock; code the layers
// call back on their own goroutines (the wrapped DSS estimator) counts
// with atomics instead of opening spans.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	op    int
}

// newRecorder starts an empty trace.
func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// nextOp starts a new operation: spans begun from now on carry its id.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// begin opens a span under the innermost open span and returns its index.
// A nil recorder records nothing, so one code path serves the untraced
// window and the traced replay.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op, Start: int64(time.Since(r.epoch))})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	n := len(r.open)
	if n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("trace: span %d closed out of order", id))
	}
	r.open = r.open[:n-1]
	r.spans[id].End = now
}

// in times fn as a span.
func (r *recorder) in(name string, fn func() error) error {
	id := r.begin(name)
	err := fn()
	r.end(id)
	return err
}

// durationsMS returns the duration of every closed span of the given name,
// in milliseconds, in recording order.
func (r *recorder) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimesMS returns, per span name, each closed span's self time in
// milliseconds: its duration minus the part of its interval that its child
// spans cover (overlapping children are not double-counted).
func (r *recorder) selfTimesMS() map[string][]float64 {
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string][]float64)
	for i, s := range r.spans {
		if s.End == 0 {
			continue
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered(children[i], s.Start, s.End))/1e6)
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, x := range iv {
		start, end := x[0], x[1]
		if start < at {
			start = at
		}
		if end > hi {
			end = hi
		}
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// write stores the trace as one JSON document: the run's provenance header
// and the span list.
func (r *recorder) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	hdr, err := json.Marshal(header)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "{\"header\":%s,\n\"spans\":[", hdr)
	for i, s := range r.spans {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		fmt.Fprintf(w, "%s{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}", sep, s.Name, s.Start, s.End, s.Parent, s.Op)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
