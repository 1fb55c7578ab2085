package pagestore

import (
	"fmt"

	"dotprov/internal/bufferpool"
	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
)

// RID is a record identifier: page number and slot within the page.
type RID struct {
	Page uint32
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// HeapFile is an append-oriented table file made of slotted pages. Device
// time is charged through the buffer pool: sequential reads during scans,
// random reads for RID fetches, and per-row write charges for inserts and
// updates (matching the units of the paper's Table 1).
//
// What a reader derives from the records and keeps — the executor's
// decoded columns — it keeps for one write epoch of the database that owns
// the file (see executor.Storage), which every write to any file ends.
type HeapFile struct {
	obj   catalog.ObjectID
	pages []*Page
	rows  int64
	// insertHint is the page that last accepted an insert; appends go there
	// first, then fall through to a new page.
	insertHint int
}

// NewHeapFile creates an empty heap file for the given catalog object.
func NewHeapFile(obj catalog.ObjectID) *HeapFile {
	return &HeapFile{obj: obj}
}

// Object returns the owning catalog object.
func (h *HeapFile) Object() catalog.ObjectID { return h.obj }

// NumPages returns the number of allocated pages.
func (h *HeapFile) NumPages() int { return len(h.pages) }

// NumRows returns the number of live records.
func (h *HeapFile) NumRows() int64 { return h.rows }

// SizeBytes returns the file's size (whole pages).
func (h *HeapFile) SizeBytes() int64 { return int64(len(h.pages)) * PageSize }

// Insert appends a record, charging one sequential-write row operation, and
// returns its RID.
func (h *HeapFile) Insert(pool *bufferpool.Pool, ch iosim.Charger, rec []byte) (RID, error) {
	slot, err := 0, ErrPageFull
	if h.insertHint < len(h.pages) {
		slot, err = h.pages[h.insertHint].Insert(rec)
	}
	if err == ErrPageFull {
		p := NewPage()
		if slot, err = p.Insert(rec); err != nil {
			return RID{}, err
		}
		h.pages = append(h.pages, p)
		h.insertHint = len(h.pages) - 1
	} else if err != nil {
		return RID{}, err
	}
	ch.ChargePageIO(h.obj, device.SeqWrite, int64(h.insertHint), 1)
	pool.Touch(h.obj, uint32(h.insertHint))
	h.rows++
	return RID{Page: uint32(h.insertHint), Slot: uint16(slot)}, nil
}

// Fetch reads the record at rid with a random page read (on buffer miss).
// The returned bytes alias the page.
func (h *HeapFile) Fetch(pool *bufferpool.Pool, ch iosim.Charger, rid RID) ([]byte, error) {
	if int(rid.Page) >= len(h.pages) {
		return nil, fmt.Errorf("pagestore: fetch %v: page out of range (have %d)", rid, len(h.pages))
	}
	pool.Access(ch, h.obj, rid.Page, device.RandRead)
	return h.pages[rid.Page].Get(int(rid.Slot))
}

// Update rewrites the record at rid in place, charging one random-write row
// operation. (An update's read side is charged by whoever located the RID.)
func (h *HeapFile) Update(pool *bufferpool.Pool, ch iosim.Charger, rid RID, rec []byte) error {
	if int(rid.Page) >= len(h.pages) {
		return fmt.Errorf("pagestore: update %v: page out of range (have %d)", rid, len(h.pages))
	}
	if err := h.pages[rid.Page].Update(int(rid.Slot), rec); err != nil {
		return err
	}
	ch.ChargePageIO(h.obj, device.RandWrite, int64(rid.Page), 1)
	pool.Touch(h.obj, rid.Page)
	return nil
}

// Delete removes the record at rid, charging one random-write row operation.
func (h *HeapFile) Delete(pool *bufferpool.Pool, ch iosim.Charger, rid RID) error {
	if int(rid.Page) >= len(h.pages) {
		return fmt.Errorf("pagestore: delete %v: page out of range (have %d)", rid, len(h.pages))
	}
	if err := h.pages[rid.Page].Delete(int(rid.Slot)); err != nil {
		return err
	}
	ch.ChargePageIO(h.obj, device.RandWrite, int64(rid.Page), 1)
	h.rows--
	return nil
}

// ScanPages visits every page in physical order, charging one sequential
// page read per page (on buffer miss) just before the visit. Iteration
// stops when fn returns false. fn must not write to the file.
func (h *HeapFile) ScanPages(pool *bufferpool.Pool, ch iosim.Charger, fn func(pg int, p *Page) bool) {
	for pg, p := range h.pages {
		pool.Access(ch, h.obj, uint32(pg), device.SeqRead)
		if !fn(pg, p) {
			return
		}
	}
}

// Scan iterates every live record in physical order, page by page as
// ScanPages charges them. The callback's record slice aliases the page.
// Iteration stops when fn returns false.
func (h *HeapFile) Scan(pool *bufferpool.Pool, ch iosim.Charger, fn func(rid RID, rec []byte) bool) error {
	var err error
	h.ScanPages(pool, ch, func(pg int, p *Page) bool {
		for s := 0; s < p.NumSlots(); s++ {
			rec, e := p.Get(s)
			if e == ErrNoSlot {
				continue
			}
			if e != nil {
				err = e
				return false
			}
			if !fn(RID{Page: uint32(pg), Slot: uint16(s)}, rec) {
				return false
			}
		}
		return true
	})
	return err
}
