package iosim

import (
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/types"
)

// TestApportionProfile: whole-object units inherit their parent's counts
// exactly, split objects distribute by heat, and foreign profiled IDs are
// dropped.
func TestApportionProfile(t *testing.T) {
	c := catalog.New()
	sch := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	hot, err := c.CreateTable("hot", sch, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := c.CreateTable("cold", sch, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	c.SetSize(hot.ID, 1<<30)
	c.SetSize(cold.ID, 1<<28)
	pages := int64(1 << 30 / catalog.DefaultPageBytes)
	pt, err := catalog.BuildPartitioning(c, catalog.ExtentStats{
		ByObject: map[catalog.ObjectID][]catalog.Extent{
			hot.ID: {
				{Pages: pages / 4, Count: 3000},
				{Pages: pages - pages/4, Count: 1000},
			},
		},
	}, catalog.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.UnitsOf(hot.ID)) != 2 || len(pt.UnitsOf(cold.ID)) != 1 {
		t.Fatalf("unexpected split: hot=%d cold=%d units",
			len(pt.UnitsOf(hot.ID)), len(pt.UnitsOf(cold.ID)))
	}

	p := NewProfile()
	p.Add(hot.ID, device.RandRead, 4000)
	p.Add(cold.ID, device.SeqRead, 123)
	p.Add(catalog.ObjectID(999), device.SeqRead, 5) // foreign: dropped

	up := ApportionProfile(p, pt)
	us := pt.UnitsOf(hot.ID)
	if got := up.Get(us[0])[device.RandRead]; got != 3000 {
		t.Fatalf("hot head got %g rand reads, want 3000", got)
	}
	if got := up.Get(us[1])[device.RandRead]; got != 1000 {
		t.Fatalf("cold tail got %g rand reads, want 1000", got)
	}
	if got := up.Get(pt.UnitsOf(cold.ID)[0])[device.SeqRead]; got != 123 {
		t.Fatalf("whole-object unit got %g seq reads, want exactly 123", got)
	}
	if len(up) != 3 {
		t.Fatalf("apportioned profile covers %d units, want 3 (foreign id dropped)", len(up))
	}
}

// TestAccountantChargePageIO: a charge's page does not change what the
// accountant measures, and the charge reaches its tap with the page.
func TestAccountantChargePageIO(t *testing.T) {
	c := catalog.New()
	sch := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	tab, err := c.CreateTable("t", sch, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	box := device.Box1()
	layout := catalog.NewUniformLayout(c, device.HSSD)
	a, err := NewAccountant(box, layout, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAccountant(box, layout, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tap := &lastCharge{}
	a.SetTap(tap)
	a.ChargePageIO(tab.ID, device.RandRead, 7, 2)
	b.ChargePageIO(tab.ID, device.RandRead, -1, 2)
	if a.IOTime() != b.IOTime() || a.Now() != b.Now() {
		t.Fatalf("page charge accounting diverged: %v vs %v", a.IOTime(), b.IOTime())
	}
	if a.Profile().Get(tab.ID)[device.RandRead] != 2 {
		t.Fatal("profile missed the page charge")
	}
	if tap.page != 7 || tap.n != 2 {
		t.Fatalf("page tap saw page=%d n=%d, want 7/2", tap.page, tap.n)
	}
}

type lastCharge struct {
	page, n int64
}

func (p *lastCharge) ChargePageIO(_ catalog.ObjectID, _ device.IOType, page int64, n int64) {
	p.page, p.n = page, n
}
