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
	"dotprov/internal/iosim"
)

// NopCharger discards charges; useful for loading data outside measurement.
type NopCharger struct{}

// ChargePageIO implements iosim.Charger by doing nothing.
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

type frame struct {
	key PageKey
	ref bool
}

// Access is one page access: the page, and the read it is charged as when
// it misses.
type Access struct {
	Page PageKey
	Type device.IOType
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
	// rec, while recording, is where Access appends every access.
	rec *[]Access
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

// Resident reports whether the page is currently buffered.
func (p *Pool) Resident(key PageKey) bool {
	_, ok := p.index[key]
	return ok
}

// Access touches a page on behalf of ch. On a miss, one read I/O of the
// given type (SeqRead or RandRead) is charged to the object's device and
// the page becomes resident, possibly evicting another page. It reports
// whether the access was a hit.
func (p *Pool) Access(ch iosim.Charger, obj catalog.ObjectID, pageNo uint32, t device.IOType) bool {
	key := PageKey{Object: obj, Page: pageNo}
	if p.rec != nil {
		*p.rec = append(*p.rec, Access{key, t})
	}
	if i, ok := p.index[key]; ok {
		p.frames[i].ref = true
		p.stats.Hits++
		return true
	}
	p.stats.Misses++
	ch.ChargePageIO(obj, t, int64(pageNo), 1)
	p.admit(key)
	return false
}

// Record makes every later Access append itself, in order, to *rec, until
// Record(nil) stops the recording. Touch is not recorded.
func (p *Pool) Record(rec *[]Access) { p.rec = rec }

// Replay makes the accesses of a recording again, in order, on behalf of
// ch: each hits or misses, and charges, as this pool decides now.
func (p *Pool) Replay(ch iosim.Charger, accesses []Access) {
	for _, a := range accesses {
		p.Access(ch, a.Page.Object, a.Page.Page, a.Type)
	}
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

// Clear empties the pool (cold cache between experiment runs), keeping the
// storage of its frames and index for the next run.
func (p *Pool) Clear() {
	p.frames = p.frames[:0]
	clear(p.index)
	p.hand = 0
}
