package iosim

import (
	"testing"
	"testing/quick"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/types"
	"dotprov/internal/vclock"
)

func testSetup(t *testing.T) (*catalog.Catalog, *device.Box, catalog.Layout, catalog.ObjectID, catalog.ObjectID) {
	t.Helper()
	c := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	tab, err := c.CreateTable("t", sch, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := c.CreateIndex("t_pkey", tab.ID, []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	box := device.Box1()
	l := catalog.Layout{tab.ID: device.HSSD, ix.ID: device.HDDRAID0}
	return c, box, l, tab.ID, ix.ID
}

func TestChargeIOAdvancesClock(t *testing.T) {
	_, box, l, tabID, _ := testSetup(t)
	a, err := NewAccountant(box, l, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.ChargePageIO(tabID, device.RandRead, -1, 10)
	want := 10 * box.Device(device.HSSD).ServiceTime(device.RandRead, 1)
	if a.Now() != want {
		t.Fatalf("clock = %v, want %v", a.Now(), want)
	}
	if a.IOTime() != want {
		t.Fatalf("IOTime = %v, want %v", a.IOTime(), want)
	}
	if got := a.Profile().Get(tabID)[device.RandRead]; got != 10 {
		t.Fatalf("profile RR count = %g, want 10", got)
	}
}

func TestChargeIOUsesLayoutClass(t *testing.T) {
	_, box, l, tabID, ixID := testSetup(t)
	a, _ := NewAccountant(box, l, 300, nil)
	a.ChargePageIO(ixID, device.SeqRead, -1, 100)
	want := 100 * box.Device(device.HDDRAID0).ServiceTime(device.SeqRead, 300)
	if a.Now() != want {
		t.Fatalf("index I/O charged %v, want %v (HDD RAID0 @300)", a.Now(), want)
	}
	_ = tabID
}

func TestChargeCPU(t *testing.T) {
	_, box, l, _, _ := testSetup(t)
	a, _ := NewAccountant(box, l, 1, nil)
	a.ChargeCPU(5 * time.Millisecond)
	a.ChargeCPU(-time.Hour) // ignored
	if a.CPUTime() != 5*time.Millisecond || a.Now() != 5*time.Millisecond {
		t.Fatalf("CPU charge wrong: cpu=%v now=%v", a.CPUTime(), a.Now())
	}
}

func TestChargeZeroOrNegativeIgnored(t *testing.T) {
	_, box, l, tabID, _ := testSetup(t)
	a, _ := NewAccountant(box, l, 1, nil)
	a.ChargePageIO(tabID, device.SeqRead, -1, 0)
	a.ChargePageIO(tabID, device.SeqRead, -1, -5)
	if a.Now() != 0 || a.Profile().Get(tabID).Total() != 0 {
		t.Fatal("zero/negative charges should be ignored")
	}
}

func TestNewAccountantValidatesLayout(t *testing.T) {
	_, box, l, tabID, _ := testSetup(t)
	bad := l.Clone()
	bad[tabID] = device.HDD // Box 1 has no plain HDD
	if _, err := NewAccountant(box, bad, 1, nil); err == nil {
		t.Fatal("layout with class absent from box should fail")
	}
}

func TestChargeUnknownObjectPanics(t *testing.T) {
	_, box, l, _, _ := testSetup(t)
	a, _ := NewAccountant(box, l, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for object not covered by layout")
		}
	}()
	a.ChargePageIO(9999, device.SeqRead, -1, 1)
}

func TestSharedClockAcrossAccountants(t *testing.T) {
	_, box, l, tabID, ixID := testSetup(t)
	clk := &vclock.Clock{}
	a1, _ := NewAccountant(box, l, 1, clk)
	a2, _ := NewAccountant(box, l, 1, clk)
	a1.ChargePageIO(tabID, device.SeqRead, -1, 1)
	a2.ChargePageIO(ixID, device.SeqRead, -1, 1)
	if clk.Now() != a1.Now() || a1.Now() != a2.Now() {
		t.Fatal("shared clock should accumulate both workers")
	}
}

func TestProfileMergeCloneScale(t *testing.T) {
	p := NewProfile()
	p.Add(1, device.SeqRead, 10)
	p.Add(2, device.RandWrite, 4)
	q := NewProfile()
	q.Add(1, device.SeqRead, 5)
	q.Add(3, device.RandRead, 2)
	p.Merge(q)
	if p.Get(1)[device.SeqRead] != 15 || p.Get(3)[device.RandRead] != 2 {
		t.Fatalf("merge wrong: %+v", p)
	}
	cl := p.Clone()
	cl.Add(1, device.SeqRead, 100)
	if p.Get(1)[device.SeqRead] != 15 {
		t.Fatal("clone mutated original")
	}
	p.Scale(2)
	if p.Get(2)[device.RandWrite] != 8 {
		t.Fatal("scale wrong")
	}
}

func TestProfileIOTime(t *testing.T) {
	_, box, l, tabID, ixID := testSetup(t)
	p := NewProfile()
	p.Add(tabID, device.RandRead, 100)
	p.Add(ixID, device.SeqRead, 1000)
	got, err := p.IOTime(l, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 100*box.Device(device.HSSD).ServiceTime(device.RandRead, 1) +
		1000*box.Device(device.HDDRAID0).ServiceTime(device.SeqRead, 1)
	if got != want {
		t.Fatalf("IOTime = %v, want %v", got, want)
	}
	// Unplaced object errors.
	p.Add(777, device.SeqRead, 1)
	if _, err := p.IOTime(l, box, 1); err == nil {
		t.Fatal("IOTime with unplaced object should fail")
	}
}

func TestObjectIOTime(t *testing.T) {
	p := NewProfile()
	p.Add(5, device.RandWrite, 3)
	d := device.New(device.LSSD)
	svc := device.NewBoxOf("b", d).ServiceTimes(1)[device.LSSD]
	got := p.ObjectIOTime(5, svc)
	if got != 3*d.ServiceTime(device.RandWrite, 1) {
		t.Fatalf("ObjectIOTime = %v", got)
	}
	if p.ObjectIOTime(999, svc) != 0 {
		t.Fatal("absent object should cost zero")
	}
}

// Property: accountant time equals profile-derived time for any I/O mix.
// This is the consistency contract between live charging (executor) and
// profile-based estimation (optimizer/DOT).
func TestAccountantProfileConsistencyProperty(t *testing.T) {
	_, box, l, tabID, ixID := testSetup(t)
	objs := []catalog.ObjectID{tabID, ixID}
	f := func(ops []uint16) bool {
		a, err := NewAccountant(box, l, 42, nil)
		if err != nil {
			return false
		}
		for i, op := range ops {
			obj := objs[i%2]
			ty := device.AllIOTypes[int(op)%4]
			a.ChargePageIO(obj, ty, -1, int64(op%7))
		}
		want, err := a.Profile().IOTime(l, box, 42)
		if err != nil {
			return false
		}
		diff := a.IOTime() - want
		if diff < 0 {
			diff = -diff
		}
		// Allow tiny rounding from float multiplication.
		return diff <= time.Duration(len(ops)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIOVector(t *testing.T) {
	var v IOVector
	v.Add(IOVector{1, 2, 3, 4})
	v.Add(IOVector{1, 0, 0, 0})
	if v.Total() != 11 || v[device.SeqRead] != 2 {
		t.Fatalf("IOVector wrong: %+v", v)
	}
}
