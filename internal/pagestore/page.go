// Package pagestore implements slotted pages and heap files — the physical
// table storage of the mini engine. Pages are real byte arrays with a slot
// directory; device time for touching them is charged through the buffer
// pool against whatever storage class the layout assigns to the object.
//
// A Page is PostgreSQL-shaped: an 8 KiB buffer with a header, records
// growing from the front, and a slot directory growing from the back, so
// records are addressed by stable (page, slot) RIDs across in-place
// compaction. A HeapFile is an append-only sequence of pages belonging to
// one catalog object: Insert appends (charging one sequential row write),
// Scan walks pages in order (charging sequential page reads on buffer
// misses), and Fetch reads one RID (charging a random read on a miss).
// The charging granularity — reads per page, writes per row — matches the
// units the paper's Table 1 calibrates.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the page size in bytes (PostgreSQL's default, 8 KiB).
const PageSize = 8192

// Page header layout:
//
//	[0:2)  slotCount  uint16
//	[2:4)  freeStart  uint16  (offset where record space ends)
//	[4:6)  deadBytes  uint16  (reclaimable bytes from deleted/moved records)
//
// The slot directory grows backwards from the end of the page; each slot is
// 4 bytes: record offset uint16, record length uint16. A deleted slot has
// offset == deletedSlot.
const (
	headerSize  = 6
	slotSize    = 4
	deletedSlot = 0xFFFF
)

// ErrPageFull reports that a record does not fit in the page.
var ErrPageFull = errors.New("pagestore: page full")

// ErrNoSlot reports access to a missing or deleted slot.
var ErrNoSlot = errors.New("pagestore: no such slot")

// Page is a slotted data page.
type Page struct {
	buf [PageSize]byte
}

// NewPage returns an initialised empty page.
func NewPage() *Page {
	p := &Page{}
	p.setFreeStart(headerSize)
	return p
}

func (p *Page) slotCount() int     { return int(binary.LittleEndian.Uint16(p.buf[0:2])) }
func (p *Page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.buf[0:2], uint16(n)) }
func (p *Page) freeStart() int     { return int(binary.LittleEndian.Uint16(p.buf[2:4])) }
func (p *Page) setFreeStart(n int) { binary.LittleEndian.PutUint16(p.buf[2:4], uint16(n)) }
func (p *Page) deadBytes() int     { return int(binary.LittleEndian.Uint16(p.buf[4:6])) }
func (p *Page) setDeadBytes(n int) { binary.LittleEndian.PutUint16(p.buf[4:6], uint16(n)) }

func (p *Page) slotPos(i int) int { return PageSize - (i+1)*slotSize }

func (p *Page) slot(i int) (off, ln int) {
	pos := p.slotPos(i)
	return int(binary.LittleEndian.Uint16(p.buf[pos : pos+2])),
		int(binary.LittleEndian.Uint16(p.buf[pos+2 : pos+4]))
}

func (p *Page) setSlot(i, off, ln int) {
	pos := p.slotPos(i)
	binary.LittleEndian.PutUint16(p.buf[pos:pos+2], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[pos+2:pos+4], uint16(ln))
}

// FreeSpace returns the bytes available for a new record (including its
// slot directory entry), before compaction.
func (p *Page) FreeSpace() int {
	free := PageSize - p.slotCount()*slotSize - p.freeStart() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// NumSlots returns the number of slots ever allocated (including deleted).
func (p *Page) NumSlots() int { return p.slotCount() }

// Insert stores a record and returns its slot number.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > PageSize-headerSize-slotSize {
		return 0, fmt.Errorf("pagestore: record of %d bytes can never fit a page", len(rec))
	}
	if p.FreeSpace() < len(rec) {
		if p.FreeSpace()+p.deadBytes() < len(rec) {
			return 0, ErrPageFull
		}
		p.compact()
		if p.FreeSpace() < len(rec) {
			return 0, ErrPageFull
		}
	}
	off := p.freeStart()
	copy(p.buf[off:], rec)
	slot := p.slotCount()
	p.setSlot(slot, off, len(rec))
	p.setSlotCount(slot + 1)
	p.setFreeStart(off + len(rec))
	return slot, nil
}

// Get returns the record stored in the slot. The returned slice aliases the
// page; callers must not hold it across page mutations.
func (p *Page) Get(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.slotCount() {
		return nil, ErrNoSlot
	}
	off, ln := p.slot(slot)
	if off == deletedSlot {
		return nil, ErrNoSlot
	}
	return p.buf[off : off+ln], nil
}

// Records appends the page's live records to dst in slot order and returns
// it. The records alias the page, as Get's do.
func (p *Page) Records(dst [][]byte) [][]byte {
	for s := 0; s < p.slotCount(); s++ {
		if rec, err := p.Get(s); err == nil {
			dst = append(dst, rec)
		}
	}
	return dst
}

// Delete removes a record, leaving the slot number allocated (RIDs of other
// records remain stable).
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.slotCount() {
		return ErrNoSlot
	}
	off, ln := p.slot(slot)
	if off == deletedSlot {
		return ErrNoSlot
	}
	p.setSlot(slot, deletedSlot, 0)
	p.setDeadBytes(p.deadBytes() + ln)
	return nil
}

// Update replaces a record in place, relocating it within the page when the
// new value is larger. Returns ErrPageFull when the page cannot hold the new
// value even after compaction; the caller may then delete + re-insert
// elsewhere.
func (p *Page) Update(slot int, rec []byte) error {
	if slot < 0 || slot >= p.slotCount() {
		return ErrNoSlot
	}
	off, ln := p.slot(slot)
	if off == deletedSlot {
		return ErrNoSlot
	}
	if len(rec) <= ln {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, len(rec))
		p.setDeadBytes(p.deadBytes() + ln - len(rec))
		return nil
	}
	// Relocate: free the old space, then place at the end of record space.
	need := len(rec)
	avail := PageSize - p.slotCount()*slotSize - p.freeStart()
	if avail < need {
		if avail+p.deadBytes()+ln < need {
			return ErrPageFull
		}
		p.setSlot(slot, deletedSlot, 0)
		p.setDeadBytes(p.deadBytes() + ln)
		p.compact()
		avail = PageSize - p.slotCount()*slotSize - p.freeStart()
		if avail < need {
			return ErrPageFull
		}
	} else {
		p.setDeadBytes(p.deadBytes() + ln)
	}
	newOff := p.freeStart()
	copy(p.buf[newOff:], rec)
	p.setSlot(slot, newOff, need)
	p.setFreeStart(newOff + need)
	return nil
}

// compact rewrites live records contiguously, reclaiming dead space. Slot
// numbers (and hence RIDs) are preserved.
func (p *Page) compact() {
	type live struct {
		slot, off, ln int
	}
	var lives []live
	for i := 0; i < p.slotCount(); i++ {
		off, ln := p.slot(i)
		if off != deletedSlot {
			lives = append(lives, live{i, off, ln})
		}
	}
	var tmp [PageSize]byte
	w := headerSize
	for _, l := range lives {
		copy(tmp[w:], p.buf[l.off:l.off+l.ln])
		w += l.ln
	}
	copy(p.buf[headerSize:w], tmp[headerSize:w])
	r := headerSize
	for _, l := range lives {
		p.setSlot(l.slot, r, l.ln)
		r += l.ln
	}
	p.setFreeStart(w)
	p.setDeadBytes(0)
}
