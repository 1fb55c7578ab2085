package provision

import (
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// fixture builds a catalog + profile-driven estimator on a given box.
func fixture(t *testing.T, box *device.Box) core.Input {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	tab, err := cat.CreateTable("data", sch, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cat.CreateIndex("data_pkey", tab.ID, []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetSize(tab.ID, 10e9)
	cat.SetSize(ix.ID, 1e9)
	prof := iosim.NewProfile()
	prof.Add(tab.ID, device.SeqRead, 1e6)
	prof.Add(ix.ID, device.RandRead, 1e4)
	ps := core.NewProfileSet()
	ps.SetSingle(prof)
	return core.Input{
		Cat: cat, Box: box,
		Est:      &profEst{box: box, prof: prof},
		Profiles: ps, Concurrency: 1,
	}
}

type profEst struct {
	box  *device.Box
	prof iosim.Profile
}

func (e *profEst) Estimate(l catalog.Layout) (workload.Metrics, error) {
	t, err := e.prof.IOTime(l, e.box, 1)
	if err != nil {
		return workload.Metrics{}, err
	}
	return workload.Metrics{Elapsed: t, PerQuery: []time.Duration{t}}, nil
}

func TestDiscreteCostModel(t *testing.T) {
	in := fixture(t, device.Box1())
	tab := in.Cat.Lookup("data")
	ix := in.Cat.Lookup("data_pkey")

	linear, err := DiscreteCostModel(in.Cat, in.Box, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := DiscreteCostModel(in.Cat, in.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := catalog.Layout{tab.ID: device.HSSD, ix.ID: device.HSSD}
	c0, err := linear(l)
	if err != nil {
		t.Fatal(err)
	}
	// alpha = 0 degenerates to the linear model.
	want, _ := l.CostCentsPerHour(in.Cat, in.Box)
	if diff := c0 - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("alpha=0 cost %g != linear %g", c0, want)
	}
	// alpha = 1 charges the whole 80 GB H-SSD regardless of usage.
	c1, err := full(l)
	if err != nil {
		t.Fatal(err)
	}
	d := in.Box.Device(device.HSSD)
	wantFull := d.PriceCents * float64(d.CapacityBytes) / 1e9
	if diff := c1 - wantFull; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("alpha=1 cost %g != one device %g", c1, wantFull)
	}
	// Spreading over two classes at alpha=1 costs two whole devices.
	l2 := catalog.Layout{tab.ID: device.HDDRAID0, ix.ID: device.HSSD}
	c2, _ := full(l2)
	hdd := in.Box.Device(device.HDDRAID0)
	wantTwo := wantFull + hdd.PriceCents*float64(hdd.CapacityBytes)/1e9
	if diff := c2 - wantTwo; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("two-class alpha=1 cost %g != %g", c2, wantTwo)
	}
	// Oversized placements buy multiple units.
	in.Cat.SetSize(tab.ID, 100e9) // > one 80 GB H-SSD
	c3, _ := full(l)
	if c3 <= wantFull*1.5 {
		t.Fatalf("100 GB on 80 GB devices should cost 2 units, got %g", c3)
	}
	// Bad alpha rejected.
	if _, err := DiscreteCostModel(in.Cat, in.Box, -0.1); err == nil {
		t.Fatal("negative alpha should fail")
	}
	if _, err := DiscreteCostModel(in.Cat, in.Box, 1.1); err == nil {
		t.Fatal("alpha > 1 should fail")
	}
}
