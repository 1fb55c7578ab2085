package workload

import (
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
)

// TestSkewedDeterministicAndSkewed: the generator is sampling-free (equal
// configs produce identical fixtures) and genuinely skewed (the first
// extent of each table carries the majority of its heat).
func TestSkewedDeterministicAndSkewed(t *testing.T) {
	a, err := Skewed(SkewedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Skewed(SkewedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Profile) != len(b.Profile) {
		t.Fatal("profiles differ in coverage")
	}
	for id, v := range a.Profile {
		if *b.Profile[id] != *v {
			t.Fatalf("object %d: profiles differ", id)
		}
	}
	for id, exts := range a.Stats.ByObject {
		var total, first float64
		for i, e := range exts {
			total += e.Count
			if i == 0 {
				first = e.Count
			}
		}
		if total <= 0 {
			continue
		}
		if first/total < 0.5 {
			t.Errorf("object %d: first extent carries only %.0f%% of the heat", id, 100*first/total)
		}
		bx, ok := b.Stats.ByObject[id]
		if !ok || len(bx) != len(exts) {
			t.Fatalf("object %d: stats differ across runs", id)
		}
		for i := range exts {
			if exts[i] != bx[i] {
				t.Fatalf("object %d extent %d: stats differ across runs", id, i)
			}
		}
	}
}

// TestApportionPreservesEstimates: apportioning preserves total I/O counts
// per object (within float tolerance), a whole-object unit's counts
// exactly, and an identity partitioning's estimator returns bit-identical
// metrics for corresponding layouts.
func TestApportionPreservesEstimates(t *testing.T) {
	fx, err := Skewed(SkewedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	up := iosim.ApportionProfile(fx.Profile, pt)
	for id, v := range fx.Profile {
		us := pt.UnitsOf(id)
		var sum iosim.IOVector
		for _, u := range us {
			sum.Add(up.Get(u))
		}
		for _, ty := range device.AllIOTypes {
			want := (*v)[ty]
			got := sum[ty]
			if diff := got - want; diff > 1e-6*want+1e-9 || diff < -1e-6*want-1e-9 {
				t.Fatalf("object %d type %v: apportioned total %g, want %g", id, ty, got, want)
			}
		}
		if len(us) == 1 && up.Get(us[0]) != *v {
			t.Fatalf("object %d: whole-object unit counts not exact", id)
		}
	}

	box := device.Box2()
	est := fx.Estimator(box, 1)
	id := catalog.IdentityPartitioning(fx.Cat)
	uest, _, err := PartitionEstimator(est, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range box.Classes() {
		om, err := est.Estimate(catalog.NewUniformLayout(fx.Cat, cls))
		if err != nil {
			t.Fatal(err)
		}
		um, err := uest.Estimate(catalog.NewUniformLayout(id.UnitCatalog(), cls))
		if err != nil {
			t.Fatal(err)
		}
		if om.Elapsed != um.Elapsed {
			t.Fatalf("class %v: identity-partitioned estimate %v != %v", cls, um.Elapsed, om.Elapsed)
		}
	}
}

// TestPartitionEstimatorThroughputPath: the OLTP test-run estimator
// re-derives at partition granularity (profiled layout expanded, stats
// carried over) and compiled wrappers unwrap transparently; the plan-aware
// estimator shape is rejected.
func TestPartitionEstimatorThroughputPath(t *testing.T) {
	fx, err := Skewed(SkewedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	box := device.Box2()
	profiled := catalog.NewUniformLayout(fx.Cat, device.HSSD)
	pe, err := NewProfileEstimator(box, 4, fx.Profile, 10*time.Millisecond,
		RunStats{Txns: 1000, Elapsed: time.Second}, profiled)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range []Estimator{pe, CompileEstimator(pe, fx.Cat)} {
		uest, uprof, err := PartitionEstimator(est, pt)
		if err != nil {
			t.Fatal(err)
		}
		if len(uprof) != pt.NumUnits() {
			t.Fatalf("unit profile covers %d units, want %d", len(uprof), pt.NumUnits())
		}
		m, err := uest.Estimate(catalog.NewUniformLayout(pt.UnitCatalog(), device.HSSD))
		if err != nil {
			t.Fatal(err)
		}
		if m.Throughput <= 0 {
			t.Fatal("partitioned throughput estimate is zero")
		}
	}

	var notPartitionable Estimator = estimatorFunc(func(catalog.Layout) (Metrics, error) { return Metrics{}, nil })
	if _, _, err := PartitionEstimator(notPartitionable, pt); err == nil {
		t.Fatal("expected an error for a non-partitionable estimator")
	}
}

// TestPartitionSetProfileEstimator: an estimator anchored on a replicated
// deployment re-derives at partition granularity on the expanded anchor,
// so the partitioned estimate of the deployment reproduces the test run
// it measured, where an L0 anchor would not.
func TestPartitionSetProfileEstimator(t *testing.T) {
	fx, err := Skewed(SkewedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	box := device.Box2()
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deployed := catalog.NewUniformSetLayout(fx.Cat, device.Singleton(device.LSSDRAID0))
	deployed[catalog.ObjectID(1)] = device.Singleton(device.HSSD).Add(device.HDD)
	l0 := catalog.NewUniformSetLayout(fx.Cat, device.Singleton(device.HSSD))
	run := RunStats{Txns: 1000, Elapsed: time.Second}
	units := pt.ExpandSetLayout(deployed)
	for _, anchor := range []catalog.SetLayout{deployed, l0} {
		pe, err := NewSetProfileEstimator(box, 4, fx.Profile, 10*time.Millisecond, run, anchor)
		if err != nil {
			t.Fatal(err)
		}
		uest, _, err := PartitionEstimator(pe, pt)
		if err != nil {
			t.Fatal(err)
		}
		m, err := uest.(SetEstimator).EstimateSet(units)
		if err != nil {
			t.Fatal(err)
		}
		if reproduced := (m.Elapsed - run.Elapsed).Abs() <= time.Nanosecond; reproduced != anchor.Equal(deployed) {
			t.Fatalf("anchor %v: the deployment's partitioned estimate is %v against the run's %v", anchor, m.Elapsed, run.Elapsed)
		}
	}
}

type estimatorFunc func(l catalog.Layout) (Metrics, error)

func (f estimatorFunc) Estimate(l catalog.Layout) (Metrics, error) { return f(l) }

// TestCompiledObservedPartitionFor: the compiled observed estimator
// unwraps to its map-path source for partitioning, and UnitMigrationBytes
// accounts exactly the moved units.
func TestCompiledObservedPartitionFor(t *testing.T) {
	fx, err := Skewed(SkewedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	box := device.Box1()
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	compiled := CompileEstimator(fx.Estimator(box, 1), fx.Cat)
	if _, ok := compiled.(CompactEstimator); !ok {
		t.Fatal("observed estimator did not compile")
	}
	uest, uprof, err := PartitionEstimator(compiled, pt)
	if err != nil {
		t.Fatal(err)
	}
	if len(uprof) != pt.NumUnits() {
		t.Fatalf("unit profile covers %d units, want %d", len(uprof), pt.NumUnits())
	}
	if _, err := uest.Estimate(catalog.NewUniformLayout(pt.UnitCatalog(), device.HSSD)); err != nil {
		t.Fatal(err)
	}

	from := pt.ExpandLayout(catalog.NewUniformLayout(fx.Cat, device.HSSD))
	to := from.Clone()
	moved := pt.UnitsOf(catalog.ObjectID(1))
	to[moved[len(moved)-1]] = device.HDD
	want := pt.Unit(moved[len(moved)-1]).SizeBytes
	if got := UnitMigrationBytes(pt, from, to); got != want {
		t.Fatalf("UnitMigrationBytes %d, want %d", got, want)
	}
	if got := UnitMigrationBytes(pt, from, from); got != 0 {
		t.Fatalf("identity transition moved %d bytes", got)
	}
}
