// Package bufferpool implements a clock-sweep page cache shared by the
// engine's heap files and B+-tree indexes.
//
// In this reproduction pages always live in process memory; the pool's job
// is to decide which accesses hit the simulated DB buffer (free) and which
// miss and must be charged to the storage device holding the object. This
// mirrors the paper's methodology: device service times were benchmarked
// end-to-end from inside the DBMS with its buffers active (§3.5.1), while
// the optimizer's estimates deliberately ignore caching (§3.5).
package bufferpool

import (
	"dotprov/internal/catalog"
	"dotprov/internal/device"
)

// IOCharger receives the device charges for buffer misses and row writes.
// *iosim.Accountant implements it.
type IOCharger interface {
	ChargeIO(id catalog.ObjectID, t device.IOType, n int64)
}

// PageIOCharger is an IOCharger that also accepts page-located charges
// (the method set of iosim.PageCharger). Charge sites that know the page —
// the pool's miss path, the heap files' row writes — prefer it, so
// observers can maintain the per-extent access statistics heat-based
// partitioning splits on.
type PageIOCharger interface {
	IOCharger
	ChargePageIO(id catalog.ObjectID, t device.IOType, page int64, n int64)
}

// ChargePage charges n I/Os of type t on a known page: through ChargePageIO
// when the charger is page-aware, through plain ChargeIO otherwise. This is
// the engine's observation path: with a tap installed, the chain is
// ChargePage → Accountant → tap, and an online.Collector tap takes its
// mutex once per charge.
func ChargePage(ch IOCharger, id catalog.ObjectID, t device.IOType, page int64, n int64) {
	if pc, ok := ch.(PageIOCharger); ok {
		pc.ChargePageIO(id, t, page, n)
		return
	}
	ch.ChargeIO(id, t, n)
}

// NopCharger discards charges; useful for loading data outside measurement.
// It is page-aware so ChargePage stays on its fast path even when charges
// are being discarded.
type NopCharger struct{}

// ChargeIO implements IOCharger by doing nothing.
func (NopCharger) ChargeIO(catalog.ObjectID, device.IOType, int64) {}

// ChargePageIO implements PageIOCharger by doing nothing.
func (NopCharger) ChargePageIO(catalog.ObjectID, device.IOType, int64, int64) {}

// PageKey identifies a page cluster-wide.
type PageKey struct {
	Object catalog.ObjectID
	Page   uint32
}

// Stats reports pool effectiveness.
type Stats struct {
	Hits   int64
	Misses int64
}

// HitRate returns the fraction of accesses served from the buffer.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type frame struct {
	key PageKey
	ref bool
}

// Pool is a clock-sweep buffer pool. It tracks residency only (the bytes
// live in the heap files); capacity is in pages. A Pool is not safe for
// concurrent use; the engine serialises access (simulated workers interleave
// on virtual time, not real threads).
type Pool struct {
	capacity int
	frames   []frame
	index    map[PageKey]int
	hand     int
	stats    Stats
}

// New creates a pool holding up to capacity pages. Capacity below 1 is
// treated as 1.
func New(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		capacity: capacity,
		index:    make(map[PageKey]int),
	}
}

// Capacity returns the pool size in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Stats returns the hit/miss counters.
func (p *Pool) Stats() Stats { return p.stats }

// ResetStats clears the hit/miss counters.
func (p *Pool) ResetStats() { p.stats = Stats{} }

// Resident reports whether the page is currently buffered.
func (p *Pool) Resident(key PageKey) bool {
	_, ok := p.index[key]
	return ok
}

// Access touches a page on behalf of ch. On a miss, one read I/O of the
// given type (SeqRead or RandRead) is charged to the object's device and
// the page becomes resident, possibly evicting another page. It reports
// whether the access was a hit.
func (p *Pool) Access(ch IOCharger, obj catalog.ObjectID, pageNo uint32, t device.IOType) bool {
	key := PageKey{Object: obj, Page: pageNo}
	if i, ok := p.index[key]; ok {
		p.frames[i].ref = true
		p.stats.Hits++
		return true
	}
	p.stats.Misses++
	ChargePage(ch, obj, t, int64(pageNo), 1)
	p.admit(key)
	return false
}

// Touch makes a page resident without charging (used right after a page is
// created by an insert: the writer has it in hand).
func (p *Pool) Touch(obj catalog.ObjectID, pageNo uint32) {
	key := PageKey{Object: obj, Page: pageNo}
	if i, ok := p.index[key]; ok {
		p.frames[i].ref = true
		return
	}
	p.admit(key)
}

func (p *Pool) admit(key PageKey) {
	if len(p.frames) < p.capacity {
		p.frames = append(p.frames, frame{key: key, ref: true})
		p.index[key] = len(p.frames) - 1
		return
	}
	// Clock sweep: find a frame with ref == false, clearing ref bits as we
	// pass. Bounded by 2 full sweeps.
	for {
		f := &p.frames[p.hand]
		if !f.ref {
			delete(p.index, f.key)
			f.key = key
			f.ref = true
			p.index[key] = p.hand
			p.hand = (p.hand + 1) % p.capacity
			return
		}
		f.ref = false
		p.hand = (p.hand + 1) % p.capacity
	}
}

// Invalidate drops all pages of an object (e.g. after truncation).
func (p *Pool) Invalidate(obj catalog.ObjectID) {
	for key, i := range p.index {
		if key.Object == obj {
			delete(p.index, key)
			p.frames[i].key = PageKey{}
			p.frames[i].ref = false
		}
	}
}

// Clear empties the pool (cold cache between experiment runs), keeping the
// storage of its frames and index for the next run.
func (p *Pool) Clear() {
	p.frames = p.frames[:0]
	clear(p.index)
	p.hand = 0
}
