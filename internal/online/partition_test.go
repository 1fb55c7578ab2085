package online

import (
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// TestCollectorExtentStats: page-located charges build the per-extent
// histogram (bucketed at the configured width) while the window profile
// accumulates exactly as for page-blind charges.
func TestCollectorExtentStats(t *testing.T) {
	col := NewCollector(2)
	col.SetExtentPages(10)
	const obj = catalog.ObjectID(1)
	for p := int64(0); p < 10; p++ { // bucket 0: 10 hits
		col.ChargePageIO(obj, device.RandRead, p, 1)
	}
	col.ChargePageIO(obj, device.SeqRead, 25, 4) // bucket 2: 4 hits
	col.ChargeIO(obj, device.RandRead, 3)        // page-blind: profile only

	st := col.ExtentStats()
	exts := st.ByObject[obj]
	if len(exts) != 3 {
		t.Fatalf("got %d extents, want 3", len(exts))
	}
	if exts[0].Count != 10 || exts[1].Count != 0 || exts[2].Count != 4 {
		t.Fatalf("extent counts %v, want [10 0 4]", exts)
	}
	if exts[0].Pages != 10 || st.PageBytes <= 0 {
		t.Fatalf("extent geometry wrong: %+v page bytes %d", exts[0], st.PageBytes)
	}
	w := col.Roll(time.Second)
	if got := w.Profile.Get(obj)[device.RandRead]; got != 13 {
		t.Fatalf("window rand reads %g, want 13 (page-located + page-blind)", got)
	}
	col.ResetExtents()
	if len(col.ExtentStats().ByObject) != 0 {
		t.Fatal("ResetExtents left histograms behind")
	}
}

// TestManagerPartitionGranular: a manager configured with a partitioning
// advises unit-granular layouts — the initial advise splits the skewed
// tables and its migration plan moves only the cold extents, not whole
// tables.
func TestManagerPartitionGranular(t *testing.T) {
	fx, err := workload.Skewed(workload.SkewedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	box := device.Box2()
	mgr, err := NewManager(Config{
		Cat:          fx.Cat,
		Box:          box,
		SLA:          0.2,
		Partitioning: pt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Partitioning() != pt {
		t.Fatal("manager lost its partitioning")
	}
	// Windows arrive object-granular (the engine taps and the /observe wire
	// path both charge objects); the manager apportions internally.
	mgr.Observe(Window{Profile: fx.Profile, CPU: fx.CPU, Elapsed: time.Second})
	dec, err := mgr.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible {
		t.Fatal("initial partitioned advise infeasible")
	}
	if len(dec.Result.Layout) != pt.NumUnits() {
		t.Fatalf("decision layout has %d entries, want %d units", len(dec.Result.Layout), pt.NumUnits())
	}
	if _, ok := pt.CollapseLayout(dec.Result.Layout); ok {
		t.Fatal("expected a genuinely sub-object layout (some object split)")
	}
	// The deployed layout starts at L0 (everything on H-SSD); the advise
	// migrates the cold tails only, so the moved bytes must be a strict
	// subset of the database.
	if dec.Migration.Bytes <= 0 || dec.Migration.Bytes >= fx.Cat.TotalSize() {
		t.Fatalf("migration moved %d bytes, want a strict non-empty subset of %d",
			dec.Migration.Bytes, fx.Cat.TotalSize())
	}
	for _, mv := range dec.Migration.Moves {
		if u := pt.Unit(mv.Obj); u.Name == "" {
			t.Fatalf("migration move references unknown unit %d", mv.Obj)
		}
	}
	// Per-partition accounting: the moved bytes equal the sizes of exactly
	// the units that changed class.
	from, _ := dec.SetFrom.SingleLayout()
	if want := workload.UnitMigrationBytes(pt, from, dec.Result.Layout); dec.Migration.Bytes != want {
		t.Fatalf("migration bytes %d != per-unit accounting %d", dec.Migration.Bytes, want)
	}
	// Undrifted follow-up window: no re-advise.
	mgr.Observe(Window{Profile: fx.Profile, CPU: fx.CPU, Elapsed: time.Second})
	dec2, err := mgr.ReAdvise(false)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.ReAdvised {
		t.Fatal("undrifted window must not re-advise")
	}
}

// TestManagerPartitioningValidation: a partitioning from a foreign catalog
// is rejected.
func TestManagerPartitioningValidation(t *testing.T) {
	fx, err := workload.Skewed(workload.SkewedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := workload.Skewed(workload.SkewedConfig{Tables: 2})
	if err != nil {
		t.Fatal(err)
	}
	pt := catalog.IdentityPartitioning(other.Cat)
	if _, err := NewManager(Config{Cat: fx.Cat, Box: device.Box1(), SLA: 0.5, Partitioning: pt}); err == nil {
		t.Fatal("expected a foreign partitioning to be rejected")
	}
}
