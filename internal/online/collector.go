package online

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
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
// wire path). A Collector is safe for concurrent use.
//
// The charge path is the engine's critical path, so it is sharded and
// lock-free: each simulated worker charges through a private
// write-combining lane (iosim.Accountant.SetTap resolves one via the
// LaneCharger interface) that accumulates into plain single-owner counters
// — a steady-state charge is a handful of plain integer adds, no atomics,
// no locks, no shared cache lines — and publishes into padded per-shard
// atomic accumulators in small batches (every laneFlushEvery charges,
// after every merge, and whenever the owning accountant's results are
// read). A merger folds the shard deltas into the current rolling window
// at every window boundary (Roll), on demand (Merge), or periodically from
// a background goroutine (StartMerger). Plain ChargeIO calls without a
// lane hash onto a shard by object and hit the shard atomics directly —
// still lock-free, merely sharing cache lines when goroutines collide on
// an object. Counts accumulate as integers end to end and convert to
// float64 once at merge time, so merged windows are bit-identical to a
// serial locked collector fed the same charges (see LockedCollector, the
// retained pre-sharding baseline).
//
// Page-located charges (iosim.PageCharger, fed by the buffer pool's miss
// path and the heap files' row writes) additionally accumulate into
// per-object extent histograms — the per-extent access statistics that
// heat-based partitioning (catalog.BuildPartitioning) splits and merges
// on. Unlike windows, the histograms are cumulative over the collector's
// lifetime: partition boundaries should reflect long-run locality, not one
// window's noise. Reset them with ResetExtents.
type Collector struct {
	// mu guards the cold state: the window ring, the current window the
	// merger folds into, and the cumulative extent histograms. The charge
	// hot path never takes it.
	mu     sync.Mutex
	max    int
	closed []Window // ring of closed windows, oldest first
	cur    Window
	total  int64 // windows closed over the collector's lifetime
	// extPages is the extent-histogram bucket width in pages; ext holds the
	// per-object access counts per bucket.
	extPages atomic.Int64
	ext      map[catalog.ObjectID][]float64

	// shards are the ingestion lanes; laneNext round-robins Lane() handles
	// across them. cpuNanos and txns are the window's scalar accumulators
	// (low-rate, one atomic each). epoch counts merges: write-combining
	// lanes watch it and publish their private batches after every merge.
	shards   []*shard
	laneNext atomic.Uint32
	epoch    atomic.Uint64
	cpuNanos atomic.Int64
	txns     atomic.Int64

	mergerMu   sync.Mutex
	mergerStop chan struct{}
}

// DefaultWindows is the ring capacity when Config.Windows is 0: enough
// history to aggregate a few windows while bounding retained profiles.
const DefaultWindows = 8

// DefaultExtentPages is the extent-histogram bucket width: 128 pages
// (1 MiB at the engine's 8 KiB page size) — fine enough to isolate a hot
// page range, coarse enough to bound the histograms.
const DefaultExtentPages = 128

// extSegBuckets is the extent-histogram segment size. Histograms grow by
// whole segments: the segment directory is copied on growth but the
// segments themselves never move, so concurrent bucket writes are never
// racing a copy.
const extSegBuckets = 64

// extSeg is one fixed block of extent-histogram buckets.
type extSeg [extSegBuckets]atomic.Int64

// laneCounters is one shard's accumulator for one object: the per-type I/O
// counts and (for page-located charges) the extent-histogram segments. A
// laneCounters never moves once published, so the hot path is a pointer
// load, an index, and an atomic add.
type laneCounters struct {
	vec  [device.NumIOTypes]atomic.Int64
	segs atomic.Pointer[[]*extSeg]
}

// shard is one ingestion lane: a growable object directory of atomic
// counters. The padding keeps neighbouring shards' directories off one
// cache line so lanes on different cores never false-share.
type shard struct {
	_    [64]byte
	objs atomic.Pointer[[]*laneCounters]
	grow sync.Mutex
	_    [64]byte
}

// counters returns the shard's accumulator for an object, growing the
// directory on first sight (the only slow path).
func (sh *shard) counters(id catalog.ObjectID) *laneCounters {
	if objs := sh.objs.Load(); objs != nil && int(id) < len(*objs) {
		return (*objs)[id]
	}
	return sh.growObjects(id)
}

// growObjects extends the object directory to cover id. New slots are
// filled eagerly so a published directory never contains nil entries —
// readers load the pointer and index without rechecking.
func (sh *shard) growObjects(id catalog.ObjectID) *laneCounters {
	sh.grow.Lock()
	defer sh.grow.Unlock()
	var old []*laneCounters
	if p := sh.objs.Load(); p != nil {
		old = *p
	}
	if int(id) < len(old) {
		return old[id]
	}
	n := 2 * len(old)
	if n < int(id)+1 {
		n = int(id) + 1
	}
	if n < 8 {
		n = 8
	}
	objs := make([]*laneCounters, n)
	copy(objs, old)
	for i := len(old); i < n; i++ {
		objs[i] = &laneCounters{}
	}
	sh.objs.Store(&objs)
	return objs[id]
}

// extSlot returns the histogram bucket counter for bucket b, growing the
// segment directory on demand. Segments are allocated eagerly and never
// move, so bucket adds can never race a growth copy and lose counts.
func (sh *shard) extSlot(lc *laneCounters, b int) *atomic.Int64 {
	seg, slot := b/extSegBuckets, b%extSegBuckets
	if segs := lc.segs.Load(); segs != nil && seg < len(*segs) {
		return &(*segs)[seg][slot]
	}
	sh.grow.Lock()
	defer sh.grow.Unlock()
	var old []*extSeg
	if p := lc.segs.Load(); p != nil {
		old = *p
	}
	if seg < len(old) {
		return &old[seg][slot]
	}
	n := 2 * len(old)
	if n < seg+1 {
		n = seg + 1
	}
	segs := make([]*extSeg, n)
	copy(segs, old)
	for i := len(old); i < n; i++ {
		segs[i] = new(extSeg)
	}
	lc.segs.Store(&segs)
	return &segs[seg][slot]
}

// laneFlushEvery is the write-combining cap: a lane publishes its private
// counters into the shard atomics at the latest after this many charges.
// In steady state the cap rarely fires — an active lane publishes on the
// first charge after every merge (the epoch check below), so the effective
// combining window is one merge interval. The cap exists so a lane under a
// collector nobody merges cannot buffer unboundedly; it is large because
// publishing is only profitable when the batch revisits counters, and the
// revisit rate is workload-sized (objects × I/O types × touched extents).
const laneFlushEvery = 8192

// laneEpochEvery is how often (in charges) a lane looks at the collector's
// merge epoch to decide whether to publish early. Checking on a stride
// keeps the steady-state charge to plain arithmetic — one decrement and a
// mask — while an active lane still publishes within laneEpochEvery
// charges of any merge. Must divide laneFlushEvery.
const laneEpochEvery = 64

// laneObj is a lane's private accumulator for one object: plain integers,
// owned by the lane's single worker, untouched by any other goroutine.
// Padded to 64 bytes so indexing is a shift and each object owns a cache
// line.
type laneObj struct {
	vec [device.NumIOTypes]int64
	ext []int64
	_   [64 - 8*device.NumIOTypes - 24]byte
}

// lane is a per-worker write-combining ingestion handle pinned to one
// shard. Charges land in plain per-object counters owned by the worker —
// no atomics, no locks, no shared cache lines — and publish into the shard
// atomics in batches (on the first charge after a merge, at the
// laneFlushEvery cap, and on Flush). A lane is single-owner, exactly like
// the iosim.Accountant that wraps it: it is NOT safe for concurrent use.
// It implements iosim.PageCharger and iosim.Flusher.
type lane struct {
	c      *Collector
	sh     *shard
	objs   []laneObj
	budget int    // charges until the next forced publish
	epoch  uint64 // collector merge epoch observed at the last publish
	// extPages caches the collector's bucket width across a batch;
	// extShift is its log2 when the width is a power of two, else -1.
	extPages int64
	extShift int
}

// ChargeIO streams one device charge into the lane's private batch. The
// steady-state body is call-free (growth and the stride checkpoint live in
// outlined slow paths), so the compiler keeps the hot loop in registers.
func (l *lane) ChargeIO(id catalog.ObjectID, t device.IOType, n int64) {
	if n <= 0 {
		return
	}
	if int(id) < len(l.objs) {
		l.objs[id].vec[t] += n
		l.budget--
		if l.budget&(laneEpochEvery-1) != 0 {
			return
		}
		l.checkpoint()
		return
	}
	l.chargeSlow(id, t, n)
}

// chargeSlow is ChargeIO's directory-growth path.
//
//go:noinline
func (l *lane) chargeSlow(id catalog.ObjectID, t device.IOType, n int64) {
	l.growObjs(id)
	l.objs[id].vec[t] += n
	l.budget--
	if l.budget&(laneEpochEvery-1) == 0 {
		l.checkpoint()
	}
}

// ChargePageIO streams one page-located device charge: the I/O count and
// the page's extent-histogram bucket, both into the private batch. Like
// ChargeIO, the steady-state body is call-free.
func (l *lane) ChargePageIO(id catalog.ObjectID, t device.IOType, page int64, n int64) {
	if n <= 0 {
		return
	}
	if int(id) < len(l.objs) {
		o := &l.objs[id]
		var b int
		if l.extShift >= 0 {
			b = int(page >> (uint(l.extShift) & 63))
		} else {
			b = int(page / l.extPages)
		}
		if b < len(o.ext) {
			o.vec[t] += n
			o.ext[b] += n
			l.budget--
			if l.budget&(laneEpochEvery-1) != 0 {
				return
			}
			l.checkpoint()
			return
		}
	}
	l.chargePageSlow(id, t, page, n)
}

// chargePageSlow is ChargePageIO's growth path: extend the object
// directory and/or the extent histogram, then charge.
//
//go:noinline
func (l *lane) chargePageSlow(id catalog.ObjectID, t device.IOType, page int64, n int64) {
	if int(id) >= len(l.objs) {
		l.growObjs(id)
	}
	o := &l.objs[id]
	var b int
	if l.extShift >= 0 {
		b = int(page >> (uint(l.extShift) & 63))
	} else {
		b = int(page / l.extPages)
	}
	if b >= len(o.ext) {
		o.ext = growInt64(o.ext, b)
	}
	o.vec[t] += n
	o.ext[b] += n
	l.budget--
	if l.budget&(laneEpochEvery-1) == 0 {
		l.checkpoint()
	}
}

// growObjs extends the lane's private object directory to cover id.
func (l *lane) growObjs(id catalog.ObjectID) {
	n := 2 * len(l.objs)
	if n < int(id)+1 {
		n = int(id) + 1
	}
	if n < 8 {
		n = 8
	}
	objs := make([]laneObj, n)
	copy(objs, l.objs)
	l.objs = objs
}

// growInt64 extends a private histogram to cover bucket b with amortized
// doubling.
func growInt64(s []int64, b int) []int64 {
	n := 2 * len(s)
	if n < b+1 {
		n = b + 1
	}
	if n < 8 {
		n = 8
	}
	out := make([]int64, n)
	copy(out, s)
	return out
}

// checkpoint is the lane's stride check: publish when the budget is
// exhausted or a merge has bumped the collector epoch since the last
// publish (so StartMerger freshness survives batching on active lanes).
// Kept out of line so the charge fast paths stay call-free.
//
//go:noinline
func (l *lane) checkpoint() {
	if l.budget <= 0 || l.c.epoch.Load() != l.epoch {
		l.Flush()
	}
}

// Flush publishes the lane's batched charges into its shard, making them
// visible to the next merge, and resets the write-combining budget. It
// implements iosim.Flusher, so an accountant tapping through this lane
// flushes automatically whenever its results are read — the end-of-run
// point in every driver — and idle tails are never stranded. The dense
// directory scan is fine: it runs once per combining window, and lane
// directories are catalog-sized.
func (l *lane) Flush() {
	for id := range l.objs {
		o := &l.objs[id]
		var lc *laneCounters
		for t := range o.vec {
			if n := o.vec[t]; n != 0 {
				if lc == nil {
					lc = l.sh.counters(catalog.ObjectID(id))
				}
				lc.vec[t].Add(n)
				o.vec[t] = 0
			}
		}
		for b, n := range o.ext {
			if n != 0 {
				if lc == nil {
					lc = l.sh.counters(catalog.ObjectID(id))
				}
				l.sh.extSlot(lc, b).Add(n)
				o.ext[b] = 0
			}
		}
	}
	l.budget = laneFlushEvery
	l.epoch = l.c.epoch.Load()
	l.reloadWidth()
}

// reloadWidth refreshes the lane's cached bucket width (and its shift form
// when the width is a power of two). Width changes land on lanes at their
// next publish boundary; SetExtentPages documents that the width must be
// set before charging.
func (l *lane) reloadWidth() {
	l.extPages = l.c.extPages.Load()
	l.extShift = -1
	if l.extPages > 0 && l.extPages&(l.extPages-1) == 0 {
		l.extShift = bits.TrailingZeros64(uint64(l.extPages))
	}
}

// shardCountFor sizes the shard array: one lane per core (power of two for
// the fallback hash), at least 8 so narrow machines still separate a
// handful of workers.
func shardCountFor(procs int) int {
	n := 8
	for n < procs {
		n *= 2
	}
	return n
}

// NewCollector returns a collector retaining up to max closed windows
// (values < 1 select DefaultWindows).
func NewCollector(max int) *Collector {
	if max < 1 {
		max = DefaultWindows
	}
	shards := make([]*shard, shardCountFor(runtime.GOMAXPROCS(0)))
	for i := range shards {
		shards[i] = &shard{}
	}
	c := &Collector{
		max:    max,
		cur:    Window{Profile: iosim.NewProfile()},
		ext:    make(map[catalog.ObjectID][]float64),
		shards: shards,
	}
	c.extPages.Store(DefaultExtentPages)
	return c
}

// Lane returns a private write-combining ingestion lane for one worker,
// round-robined onto the shard array so concurrent workers publish to
// disjoint cache lines. A lane is single-owner — NOT safe for concurrent
// use, exactly like the iosim.Accountant that wraps it — and batches
// charges privately (see laneFlushEvery); the batch publishes on budget
// exhaustion, after every merge, and on Flush (the returned charger
// implements iosim.Flusher, which accountants invoke automatically when
// their results are read). iosim.Accountant.SetTap resolves a lane
// automatically (Collector implements iosim.LaneCharger), so every engine
// session charges through its own lane without any caller wiring.
func (c *Collector) Lane() iosim.PageCharger {
	i := c.laneNext.Add(1) - 1
	l := &lane{
		c:      c,
		sh:     c.shards[int(i)&(len(c.shards)-1)],
		budget: laneFlushEvery,
		epoch:  c.epoch.Load(),
	}
	l.reloadWidth()
	return l
}

// shardFor is the lane-less fallback: charges hash onto a shard by object,
// so direct ChargeIO callers stay lock-free (they merely share the
// object's cache line when they collide).
func (c *Collector) shardFor(id catalog.ObjectID) *shard {
	return c.shards[int(uint32(id)*2654435761>>16)&(len(c.shards)-1)]
}

// SetExtentPages overrides the extent-histogram bucket width in pages
// (values < 1 keep the default). Call before charging; changing the width
// mid-capture would mix bucket scales.
func (c *Collector) SetExtentPages(pages int64) {
	if pages < 1 {
		return
	}
	c.extPages.Store(pages)
}

// ChargeIO streams one device charge into the current window. It
// implements bufferpool.IOCharger and iosim.Charger.
func (c *Collector) ChargeIO(id catalog.ObjectID, t device.IOType, n int64) {
	if n <= 0 {
		return
	}
	c.shardFor(id).counters(id).vec[t].Add(n)
}

// ChargePageIO streams one page-located device charge: the window profile
// accumulates exactly as for ChargeIO, and the page lands in the object's
// extent histogram. It implements iosim.PageCharger and
// bufferpool.PageIOCharger.
func (c *Collector) ChargePageIO(id catalog.ObjectID, t device.IOType, page int64, n int64) {
	if n <= 0 {
		return
	}
	sh := c.shardFor(id)
	lc := sh.counters(id)
	lc.vec[t].Add(n)
	sh.extSlot(lc, int(page/c.extPages.Load())).Add(n)
}

// Merge folds every shard's accumulated charges into the current window
// and the cumulative extent histograms, now. Roll merges implicitly at
// every window boundary; call Merge (or run StartMerger) when windows are
// long and mid-window readers (drift checks, ExtentStats) should see fresh
// charges.
func (c *Collector) Merge() {
	c.mu.Lock()
	c.mergeLocked()
	c.mu.Unlock()
}

// mergeLocked drains the shard counters into cur and ext. Callers hold
// c.mu. Counters are drained with atomic swaps, so a charge racing the
// merge lands wholly in this window or wholly in the next — never torn.
// Bumping the epoch first tells active write-combining lanes to publish
// their private batches on their next charge, so a periodic merger
// (StartMerger) stays at most one merge interval behind the lanes.
func (c *Collector) mergeLocked() {
	c.epoch.Add(1)
	for _, sh := range c.shards {
		p := sh.objs.Load()
		if p == nil {
			continue
		}
		for id, lc := range *p {
			oid := catalog.ObjectID(id)
			for _, t := range device.AllIOTypes {
				if n := lc.vec[t].Swap(0); n != 0 {
					c.cur.Profile.Add(oid, t, float64(n))
				}
			}
			segs := lc.segs.Load()
			if segs == nil {
				continue
			}
			for si, seg := range *segs {
				for bi := range seg {
					if n := seg[bi].Swap(0); n != 0 {
						c.addExtentLocked(oid, si*extSegBuckets+bi, float64(n))
					}
				}
			}
		}
	}
	if ns := c.cpuNanos.Swap(0); ns != 0 {
		c.cur.CPU += time.Duration(ns)
	}
	if n := c.txns.Swap(0); n != 0 {
		c.cur.Txns += n
	}
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

// StartMerger runs the background merger: every interval the shard deltas
// fold into the current rolling window, so long windows stay fresh for
// mid-window drift checks without any reader paying the merge. Stop it
// with Close; starting twice restarts the ticker at the new interval.
func (c *Collector) StartMerger(interval time.Duration) {
	if interval <= 0 {
		return
	}
	c.mergerMu.Lock()
	defer c.mergerMu.Unlock()
	if c.mergerStop != nil {
		close(c.mergerStop)
	}
	stop := make(chan struct{})
	c.mergerStop = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.Merge()
			}
		}
	}()
}

// Close stops the background merger (if any) after folding outstanding
// charges. The collector itself stays usable; Close is idempotent.
func (c *Collector) Close() {
	c.mergerMu.Lock()
	if c.mergerStop != nil {
		close(c.mergerStop)
		c.mergerStop = nil
	}
	c.mergerMu.Unlock()
	c.Merge()
}

// ExtentStats snapshots the per-object extent histograms in the form
// catalog.BuildPartitioning consumes. The histograms only cover objects
// that produced page-located charges; everything else partitions as a
// single cold unit.
func (c *Collector) ExtentStats() catalog.ExtentStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mergeLocked()
	out := catalog.ExtentStats{
		PageBytes: pagestore.PageSize,
		ByObject:  make(map[catalog.ObjectID][]catalog.Extent, len(c.ext)),
	}
	extPages := c.extPages.Load()
	for id, h := range c.ext {
		exts := make([]catalog.Extent, len(h))
		for i, n := range h {
			exts[i] = catalog.Extent{Pages: extPages, Count: n}
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
	extPages := c.extPages.Load()
	for i, n := range counts {
		if n <= 0 {
			continue
		}
		c.addExtentLocked(id, int(int64(i)*bucketPages/extPages), n)
	}
}

// ResetExtents clears the extent histograms (e.g. after a partitioning has
// been adopted, to judge the next one on fresh locality). Outstanding
// shard deltas are folded first so stale pre-reset charges cannot
// resurrect afterwards.
func (c *Collector) ResetExtents() {
	c.mu.Lock()
	c.mergeLocked()
	c.ext = make(map[catalog.ObjectID][]float64)
	c.mu.Unlock()
}

// AddCPU accumulates CPU time into the current window (session CPU tallies
// are read at window close, not streamed per charge).
func (c *Collector) AddCPU(d time.Duration) {
	if d <= 0 {
		return
	}
	c.cpuNanos.Add(int64(d))
}

// AddTxns accumulates completed transactions into the current window.
func (c *Collector) AddTxns(n int64) {
	if n <= 0 {
		return
	}
	c.txns.Add(n)
}

// Roll closes the current window, stamping it with the virtual elapsed
// time it covered, pushes it into the ring and returns it. The next window
// starts empty. Empty windows close too — an idle period is a real
// observation (the drift detector skips windows below its I/O floor).
func (c *Collector) Roll(elapsed time.Duration) Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mergeLocked()
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
