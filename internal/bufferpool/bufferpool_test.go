package bufferpool

import (
	"testing"
	"testing/quick"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
)

// countCharger records charges per I/O type.
type countCharger struct {
	n map[device.IOType]int64
}

func newCountCharger() *countCharger {
	return &countCharger{n: make(map[device.IOType]int64)}
}

func (c *countCharger) ChargePageIO(_ catalog.ObjectID, t device.IOType, _ int64, n int64) {
	c.n[t] += n
}

func TestMissThenHit(t *testing.T) {
	p := New(4)
	ch := newCountCharger()
	if p.Access(ch, 1, 0, device.RandRead) {
		t.Fatal("first access should miss")
	}
	if !p.Access(ch, 1, 0, device.RandRead) {
		t.Fatal("second access should hit")
	}
	if ch.n[device.RandRead] != 1 {
		t.Fatalf("charged %d RR, want 1", ch.n[device.RandRead])
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestEviction(t *testing.T) {
	p := New(2)
	ch := newCountCharger()
	p.Access(ch, 1, 0, device.SeqRead)
	p.Access(ch, 1, 1, device.SeqRead)
	p.Access(ch, 1, 2, device.SeqRead) // evicts one of the first two
	resident := 0
	for pg := uint32(0); pg < 3; pg++ {
		if p.Resident(PageKey{Object: 1, Page: pg}) {
			resident++
		}
	}
	if resident != 2 {
		t.Fatalf("%d pages resident, want 2 (capacity)", resident)
	}
	if ch.n[device.SeqRead] != 3 {
		t.Fatalf("charged %d SR, want 3", ch.n[device.SeqRead])
	}
}

func TestClockPrefersUnreferenced(t *testing.T) {
	p := New(3)
	ch := newCountCharger()
	p.Access(ch, 1, 0, device.RandRead)
	p.Access(ch, 1, 1, device.RandRead)
	p.Access(ch, 1, 2, device.RandRead)
	// All ref bits set: admitting page 3 sweeps them clear and evicts at the
	// hand (page 0).
	p.Access(ch, 1, 3, device.RandRead)
	if p.Resident(PageKey{1, 0}) {
		t.Fatal("page 0 should have been evicted by the full sweep")
	}
	// Re-reference page 1; now only it has the ref bit. Admitting page 4
	// must skip page 1 and evict page 2 (the next unreferenced frame).
	p.Access(ch, 1, 1, device.RandRead)
	p.Access(ch, 1, 4, device.RandRead)
	if !p.Resident(PageKey{1, 1}) {
		t.Fatal("recently referenced page 1 should survive")
	}
	if p.Resident(PageKey{1, 2}) {
		t.Fatal("unreferenced page 2 should have been evicted")
	}
}

func TestTouchDoesNotCharge(t *testing.T) {
	p := New(2)
	ch := newCountCharger()
	p.Touch(3, 7)
	if !p.Resident(PageKey{3, 7}) {
		t.Fatal("Touch should make the page resident")
	}
	if len(ch.n) != 0 {
		t.Fatal("Touch must not charge")
	}
	if !p.Access(ch, 3, 7, device.RandRead) {
		t.Fatal("page touched should hit")
	}
	p.Touch(3, 7) // touching a resident page is a no-op
}

func TestClear(t *testing.T) {
	p := New(8)
	ch := newCountCharger()
	p.Access(ch, 2, 0, device.SeqRead)
	p.Clear()
	if p.Resident(PageKey{2, 0}) {
		t.Fatal("Clear should drop everything")
	}
	if !p.Access(ch, 2, 0, device.SeqRead) == false {
		t.Fatal("after Clear the access should miss")
	}
}

func TestMinimumCapacity(t *testing.T) {
	p := New(0)
	if p.Capacity() != 1 {
		t.Fatalf("capacity = %d, want 1", p.Capacity())
	}
	ch := newCountCharger()
	p.Access(ch, 1, 0, device.SeqRead)
	p.Access(ch, 1, 1, device.SeqRead)
	if p.Resident(PageKey{1, 0}) && p.Resident(PageKey{1, 1}) {
		t.Fatal("capacity-1 pool cannot hold two pages")
	}
}

func TestNopCharger(t *testing.T) {
	p := New(2)
	if p.Access(NopCharger{}, 1, 0, device.SeqRead) {
		t.Fatal("miss expected")
	}
}

// Property: resident set size never exceeds capacity and hits are never
// charged, across arbitrary access patterns.
func TestPoolInvariantsProperty(t *testing.T) {
	f := func(capacity uint8, accesses []uint16) bool {
		capv := int(capacity%16) + 1
		p := New(capv)
		ch := newCountCharger()
		for _, a := range accesses {
			obj := catalog.ObjectID(a % 3)
			page := uint32((a / 3) % 32)
			p.Access(ch, obj, page, device.RandRead)
			if len(p.index) > capv {
				return false
			}
		}
		st := p.Stats()
		return ch.n[device.RandRead] == st.Misses && st.Hits+st.Misses == int64(len(accesses))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
