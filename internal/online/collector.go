package online

import (
	"sync"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/pagestore"
	"dotprov/internal/workload"
)

// Window is one closed observation window: the per-object I/O profile
// charged during the window, the CPU time and virtual elapsed time it
// covered, and (for transactional workloads) the transactions completed.
// It is the online analogue of the paper's test-run observation (§3.4).
type Window struct {
	Profile iosim.Profile
	CPU     time.Duration
	// Elapsed is the span of virtual time the window covers. It normalizes
	// profiles captured over windows of different lengths before they are
	// compared, and it is the test-run elapsed time of the throughput
	// estimator on OLTP streams.
	Elapsed time.Duration
	// Txns counts transactions completed in the window; > 0 marks the
	// stream transactional (advised for cents/task against a throughput
	// SLA), 0 marks it DSS-like (cents/run against an elapsed-time SLA).
	Txns int64
}

// IOs returns the window's total I/O count across objects and types.
func (w Window) IOs() float64 {
	var total float64
	for _, v := range w.Profile {
		total += v.Total()
	}
	return total
}

// Clone returns a deep copy of the window.
func (w Window) Clone() Window {
	out := w
	if w.Profile != nil {
		out.Profile = w.Profile.Clone()
	}
	return out
}

// merge accumulates another window into w.
func (w *Window) merge(o Window) {
	if w.Profile == nil {
		w.Profile = iosim.NewProfile()
	}
	if o.Profile != nil {
		w.Profile.Merge(o.Profile)
	}
	w.CPU += o.CPU
	w.Elapsed += o.Elapsed
	w.Txns += o.Txns
}

// Fingerprint digests the window's estimator-relevant content (profile,
// CPU, elapsed, transactions). Equal fingerprints mean the drift detector
// can skip the divergence computation outright: the windows are
// bit-identical observations.
func (w Window) Fingerprint() string {
	f := workload.NewFingerprint()
	f.Profile(w.Profile)
	f.Duration(w.CPU).Duration(w.Elapsed).Int(w.Txns)
	return f.Sum()
}

// Collector accumulates a live workload profile in rolling windows. I/O
// charges stream into the current window through ChargeIO — the method set
// of bufferpool.IOCharger and iosim.Charger, so a Collector plugs directly
// into engine.DB.SetTap — until Roll closes the window into the ring;
// alternatively, Observe ingests windows closed elsewhere (the /observe
// wire path).
//
// A Collector is safe for concurrent use, and it has one rule for it:
// every charge and every read takes the collector mutex. A charge adds
// straight into the current window's profile (and, when its page is known,
// the extent histogram), so a read sees every charge made before it.
// Charges are positive integers, so their float64 sums are exact below
// 2^53 and a window does not depend on the order charges arrive in.
//
// Page-located charges (iosim.PageCharger, fed by the buffer pool's miss
// path and the heap files' row writes) additionally accumulate into
// per-object extent histograms — the per-extent access statistics that
// heat-based partitioning (catalog.BuildPartitioning) splits and merges
// on. Unlike windows, the histograms are cumulative over the collector's
// lifetime: partition boundaries should reflect long-run locality, not one
// window's noise. Reset them with ResetExtents.
type Collector struct {
	mu     sync.Mutex
	max    int
	closed []Window // ring of closed windows, oldest first
	cur    Window
	total  int64 // windows closed over the collector's lifetime
	// extPages is the extent-histogram bucket width in pages; ext holds the
	// per-object access counts per bucket.
	extPages int64
	ext      map[catalog.ObjectID][]float64
}

// DefaultWindows is the ring capacity when Config.Windows is 0: enough
// history to aggregate a few windows while bounding retained profiles.
const DefaultWindows = 8

// DefaultExtentPages is the extent-histogram bucket width: 128 pages
// (1 MiB at the engine's 8 KiB page size) — fine enough to isolate a hot
// page range, coarse enough to bound the histograms.
const DefaultExtentPages = 128

// NewCollector returns a collector retaining up to max closed windows
// (values < 1 select DefaultWindows).
func NewCollector(max int) *Collector {
	if max < 1 {
		max = DefaultWindows
	}
	return &Collector{
		max:      max,
		cur:      Window{Profile: iosim.NewProfile()},
		extPages: DefaultExtentPages,
		ext:      make(map[catalog.ObjectID][]float64),
	}
}

// Lane returns the collector itself. It remains only because the
// end-to-end benchmark's collector_charge_ns probe
// (benchmarks/e2e/offline.go) compiles against it; delete it once that
// probe times ChargePageIO directly.
func (c *Collector) Lane() iosim.PageCharger { return c }

// SetExtentPages overrides the extent-histogram bucket width in pages
// (values < 1 keep the default). Call before charging; changing the width
// mid-capture would mix bucket scales.
func (c *Collector) SetExtentPages(pages int64) {
	if pages < 1 {
		return
	}
	c.mu.Lock()
	c.extPages = pages
	c.mu.Unlock()
}

// ChargeIO adds one device charge to the current window. It implements
// bufferpool.IOCharger and iosim.Charger.
func (c *Collector) ChargeIO(id catalog.ObjectID, t device.IOType, n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.cur.Profile.Add(id, t, float64(n))
	c.mu.Unlock()
}

// ChargePageIO adds one page-located device charge: the window profile
// accumulates exactly as for ChargeIO, and the page lands in the object's
// extent histogram. It implements iosim.PageCharger and
// bufferpool.PageIOCharger.
func (c *Collector) ChargePageIO(id catalog.ObjectID, t device.IOType, page int64, n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.cur.Profile.Add(id, t, float64(n))
	c.addExtentLocked(id, int(page/c.extPages), float64(n))
	c.mu.Unlock()
}

// addExtentLocked accumulates n accesses into bucket b of an object's
// cumulative histogram. Callers hold c.mu.
func (c *Collector) addExtentLocked(id catalog.ObjectID, b int, n float64) {
	h := c.ext[id]
	for len(h) <= b {
		h = append(h, 0)
	}
	h[b] += n
	c.ext[id] = h
}

// ExtentStats snapshots the per-object extent histograms in the form
// catalog.BuildPartitioning consumes. The histograms only cover objects
// that produced page-located charges; everything else partitions as a
// single cold unit.
func (c *Collector) ExtentStats() catalog.ExtentStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := catalog.ExtentStats{
		PageBytes: pagestore.PageSize,
		ByObject:  make(map[catalog.ObjectID][]catalog.Extent, len(c.ext)),
	}
	for id, h := range c.ext {
		exts := make([]catalog.Extent, len(h))
		for i, n := range h {
			exts[i] = catalog.Extent{Pages: c.extPages, Count: n}
		}
		out.ByObject[id] = exts
	}
	return out
}

// ObserveExtents merges an extent histogram observed elsewhere (the binary
// /observe wire path) into the cumulative per-object histograms: counts[i]
// accesses to the page run starting at page i*bucketPages. Buckets
// narrower or wider than the collector's own width fold into the
// collector bucket holding their first page.
func (c *Collector) ObserveExtents(id catalog.ObjectID, bucketPages int64, counts []float64) {
	if bucketPages < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range counts {
		if n <= 0 {
			continue
		}
		c.addExtentLocked(id, int(int64(i)*bucketPages/c.extPages), n)
	}
}

// ResetExtents clears the extent histograms (e.g. after a partitioning has
// been adopted, to judge the next one on fresh locality).
func (c *Collector) ResetExtents() {
	c.mu.Lock()
	c.ext = make(map[catalog.ObjectID][]float64)
	c.mu.Unlock()
}

// AddCPU accumulates CPU time into the current window (session CPU tallies
// are read at window close, not streamed per charge).
func (c *Collector) AddCPU(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.cur.CPU += d
	c.mu.Unlock()
}

// AddTxns accumulates completed transactions into the current window.
func (c *Collector) AddTxns(n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.cur.Txns += n
	c.mu.Unlock()
}

// Roll closes the current window, stamping it with the virtual elapsed
// time it covered, pushes it into the ring and returns it. The next window
// starts empty. Empty windows close too — an idle period is a real
// observation (the drift detector skips windows below its I/O floor).
func (c *Collector) Roll(elapsed time.Duration) Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.cur
	w.Elapsed = elapsed
	c.push(w)
	c.cur = Window{Profile: iosim.NewProfile()}
	return w.Clone()
}

// Observe ingests a window closed elsewhere (e.g. shipped over /observe).
// The collector keeps the window itself, not a copy — aggregation only
// reads the windows it retains — so the caller hands it over and must not
// modify it (its profile included) afterwards.
func (c *Collector) Observe(w Window) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.push(w)
}

// push appends a closed window, evicting the oldest past capacity. Callers
// hold c.mu.
func (c *Collector) push(w Window) {
	if len(c.closed) == c.max {
		copy(c.closed, c.closed[1:])
		c.closed[len(c.closed)-1] = w
	} else {
		c.closed = append(c.closed, w)
	}
	c.total++
}

// Closed returns how many closed windows the ring currently retains.
func (c *Collector) Closed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.closed)
}

// Total returns how many windows have been closed over the collector's
// lifetime (ring evictions included).
func (c *Collector) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Aggregate merges the most recent k closed windows (all of them when k
// exceeds the retained count) into one window and reports how many it
// merged. k < 1 selects 1.
func (c *Collector) Aggregate(k int) (Window, int) {
	if k < 1 {
		k = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if k > len(c.closed) {
		k = len(c.closed)
	}
	var out Window
	out.Profile = iosim.NewProfile()
	for _, w := range c.closed[len(c.closed)-k:] {
		out.merge(w)
	}
	return out, k
}
