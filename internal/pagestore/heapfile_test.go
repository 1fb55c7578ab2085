package pagestore

import (
	"bytes"
	"slices"
	"testing"

	"dotprov/internal/bufferpool"
	"dotprov/internal/catalog"
	"dotprov/internal/device"
)

type recordingCharger struct {
	counts map[device.IOType]int64
}

func newRecorder() *recordingCharger {
	return &recordingCharger{counts: make(map[device.IOType]int64)}
}

func (r *recordingCharger) ChargePageIO(_ catalog.ObjectID, t device.IOType, _ int64, n int64) {
	r.counts[t] += n
}

func TestHeapInsertFetch(t *testing.T) {
	h := NewHeapFile(1)
	pool := bufferpool.New(16)
	ch := newRecorder()
	rid, err := h.Insert(pool, ch, []byte("row-1"))
	if err != nil {
		t.Fatal(err)
	}
	if ch.counts[device.SeqWrite] != 1 {
		t.Fatalf("insert charged %d SW, want 1", ch.counts[device.SeqWrite])
	}
	got, err := h.Fetch(pool, ch, rid)
	if err != nil || string(got) != "row-1" {
		t.Fatalf("Fetch = %q, %v", got, err)
	}
	// The inserting worker left the page resident, so no RR charge.
	if ch.counts[device.RandRead] != 0 {
		t.Fatalf("fetch of freshly written page charged %d RR, want 0 (buffer hit)", ch.counts[device.RandRead])
	}
	if h.NumRows() != 1 || h.NumPages() != 1 || h.SizeBytes() != PageSize {
		t.Fatalf("bookkeeping wrong: rows=%d pages=%d size=%d", h.NumRows(), h.NumPages(), h.SizeBytes())
	}
}

func TestHeapFetchMissChargesRandomRead(t *testing.T) {
	h := NewHeapFile(1)
	pool := bufferpool.New(16)
	rid, _ := h.Insert(pool, bufferpool.NopCharger{}, []byte("cold"))
	pool.Clear() // evict everything: simulate a cold buffer
	ch := newRecorder()
	if _, err := h.Fetch(pool, ch, rid); err != nil {
		t.Fatal(err)
	}
	if ch.counts[device.RandRead] != 1 {
		t.Fatalf("cold fetch charged %d RR, want 1", ch.counts[device.RandRead])
	}
}

func TestHeapGrowsPages(t *testing.T) {
	h := NewHeapFile(1)
	pool := bufferpool.New(4)
	rec := make([]byte, 1000)
	for i := 0; i < 20; i++ {
		if _, err := h.Insert(pool, bufferpool.NopCharger{}, rec); err != nil {
			t.Fatal(err)
		}
	}
	// 8 per page -> 3 pages.
	if h.NumPages() != 3 {
		t.Fatalf("pages = %d, want 3", h.NumPages())
	}
	if h.NumRows() != 20 {
		t.Fatalf("rows = %d, want 20", h.NumRows())
	}
}

func TestHeapScan(t *testing.T) {
	h := NewHeapFile(1)
	pool := bufferpool.New(2)
	want := map[string]bool{}
	rec := make([]byte, 900)
	for i := 0; i < 30; i++ {
		copy(rec, []byte{byte(i)})
		if _, err := h.Insert(pool, bufferpool.NopCharger{}, rec); err != nil {
			t.Fatal(err)
		}
		want[string(rec[:1])] = true
	}
	pool.Clear()
	ch := newRecorder()
	seen := 0
	err := h.Scan(pool, ch, func(rid RID, r []byte) bool {
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 30 {
		t.Fatalf("scan saw %d rows, want 30", seen)
	}
	if ch.counts[device.SeqRead] != int64(h.NumPages()) {
		t.Fatalf("scan charged %d SR, want %d (one per page)", ch.counts[device.SeqRead], h.NumPages())
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	h := NewHeapFile(1)
	pool := bufferpool.New(16)
	for i := 0; i < 10; i++ {
		h.Insert(pool, bufferpool.NopCharger{}, []byte{byte(i)})
	}
	n := 0
	h.Scan(pool, bufferpool.NopCharger{}, func(RID, []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("scan visited %d rows after early stop, want 3", n)
	}
}

func TestHeapUpdateDelete(t *testing.T) {
	h := NewHeapFile(1)
	pool := bufferpool.New(16)
	ch := newRecorder()
	rid, _ := h.Insert(pool, ch, []byte("before"))
	if err := h.Update(pool, ch, rid, []byte("after!")); err != nil {
		t.Fatal(err)
	}
	if ch.counts[device.RandWrite] != 1 {
		t.Fatalf("update charged %d RW, want 1", ch.counts[device.RandWrite])
	}
	got, _ := h.Fetch(pool, ch, rid)
	if string(got) != "after!" {
		t.Fatalf("after update = %q", got)
	}
	if err := h.Delete(pool, ch, rid); err != nil {
		t.Fatal(err)
	}
	if h.NumRows() != 0 {
		t.Fatal("row count after delete should be 0")
	}
	if _, err := h.Fetch(pool, ch, rid); err == nil {
		t.Fatal("fetch of deleted record should fail")
	}
}

func TestHeapSkipsDeletedInScan(t *testing.T) {
	h := NewHeapFile(1)
	pool := bufferpool.New(16)
	r1, _ := h.Insert(pool, bufferpool.NopCharger{}, []byte("a"))
	h.Insert(pool, bufferpool.NopCharger{}, []byte("b"))
	h.Delete(pool, bufferpool.NopCharger{}, r1)
	var seen []string
	h.Scan(pool, bufferpool.NopCharger{}, func(_ RID, rec []byte) bool {
		seen = append(seen, string(rec))
		return true
	})
	if len(seen) != 1 || seen[0] != "b" {
		t.Fatalf("scan after delete saw %v, want [b]", seen)
	}
}

func TestHeapOutOfRangeErrors(t *testing.T) {
	h := NewHeapFile(1)
	pool := bufferpool.New(4)
	bad := RID{Page: 99, Slot: 0}
	if _, err := h.Fetch(pool, bufferpool.NopCharger{}, bad); err == nil {
		t.Fatal("fetch out of range should fail")
	}
	if err := h.Update(pool, bufferpool.NopCharger{}, bad, nil); err == nil {
		t.Fatal("update out of range should fail")
	}
	if err := h.Delete(pool, bufferpool.NopCharger{}, bad); err == nil {
		t.Fatal("delete out of range should fail")
	}
}

func TestHeapInsertAfterMidFileDeleteStillAppends(t *testing.T) {
	// The insert hint tracks the tail; records keep stable RIDs.
	h := NewHeapFile(1)
	pool := bufferpool.New(16)
	var rids []RID
	rec := make([]byte, 2000)
	for i := 0; i < 9; i++ { // ~4 per page -> 3 pages
		r, _ := h.Insert(pool, bufferpool.NopCharger{}, rec)
		rids = append(rids, r)
	}
	h.Delete(pool, bufferpool.NopCharger{}, rids[0])
	r, err := h.Insert(pool, bufferpool.NopCharger{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Page != rids[len(rids)-1].Page && int(r.Page) != h.NumPages()-1 {
		t.Fatalf("insert went to page %d, want the tail", r.Page)
	}
	got, err := h.Fetch(pool, bufferpool.NopCharger{}, rids[4])
	if err != nil || !bytes.Equal(got, rec) {
		t.Fatal("unrelated record damaged")
	}
}

// TestScanPagesMatchesScan: ScanPages visits the pages in order with their
// records, a written page as it now is, charging exactly what Scan charges.
func TestScanPagesMatchesScan(t *testing.T) {
	h := NewHeapFile(1)
	pool := bufferpool.New(16)
	rec := make([]byte, 3000)
	var rids []RID
	for i := 0; i < 5; i++ { // two records a page: pages 0, 1 and 2
		rec[0] = byte(i)
		rid, err := h.Insert(pool, bufferpool.NopCharger{}, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Update(pool, bufferpool.NopCharger{}, rids[2], rec[:10]); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(pool, bufferpool.NopCharger{}, rids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert(pool, bufferpool.NopCharger{}, rec[:10]); err != nil {
		t.Fatal(err)
	}

	var pageRecs [][]byte
	pool.Clear()
	byPage := newRecorder()
	h.ScanPages(pool, byPage, func(pg int, p *Page) bool {
		pageRecs = p.Records(pageRecs)
		return true
	})
	var scanRecs [][]byte
	pool.Clear()
	byRecord := newRecorder()
	if err := h.Scan(pool, byRecord, func(_ RID, r []byte) bool {
		scanRecs = append(scanRecs, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(pageRecs) != 5 || !slices.EqualFunc(pageRecs, scanRecs, bytes.Equal) {
		t.Fatalf("ScanPages' records (%d) differ from Scan's (%d)", len(pageRecs), len(scanRecs))
	}
	if byPage.counts[device.SeqRead] != 3 || byRecord.counts[device.SeqRead] != 3 {
		t.Fatalf("ScanPages charged %d page reads, Scan %d, want 3", byPage.counts[device.SeqRead], byRecord.counts[device.SeqRead])
	}
}
