package pagestore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestPageSize pins a Page at exactly PageSize bytes. An allocation of
// 8192 bytes fills its size class exactly; a single field more moves every
// page into the 9472-byte class, 16% more memory for each page a load or a
// write allocates. What a heap file keeps per page beside its bytes goes on
// the HeapFile instead.
func TestPageSize(t *testing.T) {
	if got := unsafe.Sizeof(Page{}); got != PageSize {
		t.Fatalf("Page is %d bytes, want exactly PageSize (%d)", got, PageSize)
	}
}

func TestPageInsertGet(t *testing.T) {
	p := NewPage()
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("slots must differ")
	}
	got, err := p.Get(s1)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get(s1) = %q, %v", got, err)
	}
	got, err = p.Get(s2)
	if err != nil || string(got) != "world!" {
		t.Fatalf("Get(s2) = %q, %v", got, err)
	}
}

func TestPageGetErrors(t *testing.T) {
	p := NewPage()
	if _, err := p.Get(0); err != ErrNoSlot {
		t.Fatal("Get on empty page should be ErrNoSlot")
	}
	if _, err := p.Get(-1); err != ErrNoSlot {
		t.Fatal("negative slot should be ErrNoSlot")
	}
	s, _ := p.Insert([]byte("x"))
	if err := p.Delete(s); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s); err != ErrNoSlot {
		t.Fatal("deleted slot should be ErrNoSlot")
	}
	if err := p.Delete(s); err != ErrNoSlot {
		t.Fatal("double delete should be ErrNoSlot")
	}
}

func TestPageFull(t *testing.T) {
	p := NewPage()
	rec := make([]byte, 1000)
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			if err != ErrPageFull {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	// 8192 bytes / (1000 + 4 slot) -> 8 records fit.
	if n != 8 {
		t.Fatalf("fit %d 1000-byte records, want 8", n)
	}
	if _, err := p.Insert(make([]byte, PageSize)); err == nil {
		t.Fatal("record larger than page must be rejected")
	}
}

func TestPageDeleteReclaimViaCompaction(t *testing.T) {
	p := NewPage()
	rec := make([]byte, 1000)
	var slots []int
	for i := 0; i < 8; i++ {
		s, err := p.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	// Delete two, then a new 1500-byte record should fit via compaction.
	if err := p.Delete(slots[2]); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(slots[5]); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xAB}, 1500)
	s, err := p.Insert(big)
	if err != nil {
		t.Fatalf("insert after deletes should succeed via compaction: %v", err)
	}
	got, err := p.Get(s)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatal("record corrupted by compaction")
	}
	// Survivors must be intact and keep their slots.
	for _, i := range []int{0, 1, 3, 4, 6, 7} {
		got, err := p.Get(slots[i])
		if err != nil || len(got) != 1000 {
			t.Fatalf("survivor slot %d damaged: %v", slots[i], err)
		}
	}
}

func TestPageUpdateInPlace(t *testing.T) {
	p := NewPage()
	s, _ := p.Insert([]byte("abcdef"))
	if err := p.Update(s, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if string(got) != "xyz" {
		t.Fatalf("Get after shrink-update = %q", got)
	}
}

func TestPageUpdateGrowRelocates(t *testing.T) {
	p := NewPage()
	s1, _ := p.Insert([]byte("aa"))
	s2, _ := p.Insert([]byte("bb"))
	big := bytes.Repeat([]byte{'Z'}, 500)
	if err := p.Update(s1, big); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s1)
	if !bytes.Equal(got, big) {
		t.Fatal("grown record wrong")
	}
	got, _ = p.Get(s2)
	if string(got) != "bb" {
		t.Fatal("neighbour damaged by relocation")
	}
}

func TestPageUpdateGrowViaCompaction(t *testing.T) {
	p := NewPage()
	rec := make([]byte, 1000)
	var slots []int
	for i := 0; i < 8; i++ {
		s, _ := p.Insert(rec)
		slots = append(slots, s)
	}
	p.Delete(slots[0])
	// Growing slot 1 to 1300 requires reclaiming the deleted record's space.
	big := bytes.Repeat([]byte{1}, 1300)
	if err := p.Update(slots[1], big); err != nil {
		t.Fatalf("grow via compaction failed: %v", err)
	}
	got, _ := p.Get(slots[1])
	if !bytes.Equal(got, big) {
		t.Fatal("grown record wrong after compaction")
	}
	// Growing beyond what the page can ever hold fails.
	if err := p.Update(slots[1], make([]byte, 8000)); err != ErrPageFull {
		t.Fatalf("oversize grow = %v, want ErrPageFull", err)
	}
}

func TestPageUpdateErrors(t *testing.T) {
	p := NewPage()
	if err := p.Update(0, []byte("x")); err != ErrNoSlot {
		t.Fatal("update of missing slot should be ErrNoSlot")
	}
	s, _ := p.Insert([]byte("x"))
	p.Delete(s)
	if err := p.Update(s, []byte("y")); err != ErrNoSlot {
		t.Fatal("update of deleted slot should be ErrNoSlot")
	}
}

// Property: a page behaves like a map slot->record under arbitrary
// insert/update/delete sequences.
func TestPageModelProperty(t *testing.T) {
	type op struct {
		Kind byte
		Slot uint8
		Size uint16
	}
	f := func(ops []op) bool {
		p := NewPage()
		model := map[int][]byte{}
		var slots []int
		for i, o := range ops {
			payload := bytes.Repeat([]byte{byte(i)}, int(o.Size%600)+1)
			switch o.Kind % 3 {
			case 0: // insert
				s, err := p.Insert(payload)
				if err == ErrPageFull {
					continue
				}
				if err != nil {
					return false
				}
				model[s] = payload
				slots = append(slots, s)
			case 1: // update
				if len(slots) == 0 {
					continue
				}
				s := slots[int(o.Slot)%len(slots)]
				if _, live := model[s]; !live {
					continue
				}
				err := p.Update(s, payload)
				if err == ErrPageFull {
					continue
				}
				if err != nil {
					return false
				}
				model[s] = payload
			case 2: // delete
				if len(slots) == 0 {
					continue
				}
				s := slots[int(o.Slot)%len(slots)]
				if _, live := model[s]; !live {
					continue
				}
				if err := p.Delete(s); err != nil {
					return false
				}
				delete(model, s)
			}
		}
		for s, want := range model {
			got, err := p.Get(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRIDString(t *testing.T) {
	if got := (RID{Page: 3, Slot: 9}).String(); got != "(3,9)" {
		t.Fatalf("RID string = %q", got)
	}
}

func TestFreeSpaceMonotonicallyDecreases(t *testing.T) {
	p := NewPage()
	prev := p.FreeSpace()
	for i := 0; i < 10; i++ {
		if _, err := p.Insert([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
		cur := p.FreeSpace()
		if cur >= prev {
			t.Fatal("free space should shrink on insert")
		}
		prev = cur
	}
}
