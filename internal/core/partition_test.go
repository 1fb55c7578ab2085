package core

import (
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// skewInput builds the Zipf hot/cold fixture's object-granular input on a
// box.
func skewInput(t testing.TB, box *device.Box) (Input, *workload.SkewedFixture) {
	t.Helper()
	fx, err := workload.Skewed(workload.SkewedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ps := NewProfileSet()
	ps.SetSingle(fx.Profile)
	return Input{
		Cat:         fx.Cat,
		Box:         box,
		Est:         fx.Estimator(box, 1),
		Profiles:    ps,
		Concurrency: 1,
	}, fx
}

// TestPartitionedSkewBeatsObjectGranular is the tentpole's acceptance
// property: on the Zipf skew fixture, partition-granular DOT meets the
// same SLA at strictly lower storage cost than object-granular DOT, on
// both evaluation paths, and the two paths agree bit for bit.
func TestPartitionedSkewBeatsObjectGranular(t *testing.T) {
	const sla = 0.2
	for _, boxFn := range []func() *device.Box{device.Box1, device.Box2} {
		box := boxFn()
		in, fx := skewInput(t, box)
		pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !pt.Partitioned() {
			t.Fatalf("%s: skew fixture did not split any object", box.Name)
		}

		type outcome struct {
			toc, storage float64
			feasible     bool
		}
		run := func(in Input, noCompile bool) (outcome, outcome) {
			in.NoCompile = noCompile
			obj, err := OptimizeBest(in, Options{RelativeSLA: sla})
			if err != nil {
				t.Fatal(err)
			}
			objCost, err := obj.Layout.CostCentsPerHour(in.Cat, box)
			if err != nil {
				t.Fatal(err)
			}
			part, err := optimizePartitioned(in, pt, Options{RelativeSLA: sla})
			if err != nil {
				t.Fatal(err)
			}
			partCost, err := part.Layout.CostCentsPerHour(pt.UnitCatalog(), box)
			if err != nil {
				t.Fatal(err)
			}
			return outcome{obj.TOCCents, objCost, obj.Feasible},
				outcome{part.TOCCents, partCost, part.Feasible}
		}

		objC, partC := run(in, false)
		objM, partM := run(in, true)
		if objC != objM || partC != partM {
			t.Fatalf("%s: map and compiled paths disagree: obj %v vs %v, part %v vs %v",
				box.Name, objC, objM, partC, partM)
		}
		if !objC.feasible || !partC.feasible {
			t.Fatalf("%s: expected both granularities feasible at SLA %g: object=%v partitioned=%v",
				box.Name, sla, objC.feasible, partC.feasible)
		}
		if partC.storage >= objC.storage {
			t.Fatalf("%s: partitioned storage cost %.6e not strictly below object-granular %.6e",
				box.Name, partC.storage, objC.storage)
		}
		if partC.toc > objC.toc {
			t.Errorf("%s: partitioned TOC %.6e worse than object-granular %.6e",
				box.Name, partC.toc, objC.toc)
		}
		t.Logf("%s: storage %.4e -> %.4e cents/h (%.1fx cheaper), TOC %.4e -> %.4e",
			box.Name, objC.storage, partC.storage, objC.storage/partC.storage, objC.toc, partC.toc)
	}
}

// TestIdentityPartitionCostParity: under an identity partitioning every
// expanded layout prices bit-identically to its object-granular source —
// storage cost (map and dense paths) and estimated metrics alike.
func TestIdentityPartitionCostParity(t *testing.T) {
	box := device.Box2()
	in, fx := skewInput(t, box)
	pt := catalog.IdentityPartitioning(fx.Cat)
	if pt.Partitioned() {
		t.Fatal("identity partitioning reports Partitioned")
	}
	uin, err := in.Partitioned(pt)
	if err != nil {
		t.Fatal(err)
	}
	usizes := pt.UnitCatalog().DenseSizeBytes()
	sizes := fx.Cat.DenseSizeBytes()
	for _, cls := range box.Classes() {
		ol := catalog.NewUniformLayout(fx.Cat, cls)
		ul := pt.ExpandLayout(ol)
		oc, err := ol.CostCentsPerHour(fx.Cat, box)
		if err != nil {
			t.Fatal(err)
		}
		uc, err := ul.CostCentsPerHour(pt.UnitCatalog(), box)
		if err != nil {
			t.Fatal(err)
		}
		if oc != uc {
			t.Fatalf("class %v: unit storage cost %v != object %v", cls, uc, oc)
		}
		ocl, ok := catalog.CompactFromSetLayout(fx.Cat, catalog.SingletonSetLayout(ol))
		if !ok {
			t.Fatal("object layout must encode")
		}
		ucl, ok := catalog.CompactFromSetLayout(pt.UnitCatalog(), catalog.SingletonSetLayout(ul))
		if !ok {
			t.Fatal("unit layout must encode")
		}
		odc, _, err := ocl.PriceDense(sizes, box)
		if err != nil {
			t.Fatal(err)
		}
		udc, _, err := ucl.PriceDense(usizes, box)
		if err != nil {
			t.Fatal(err)
		}
		if odc != oc || udc != uc {
			t.Fatalf("class %v: dense costs diverge from map costs", cls)
		}
		om, err := in.Est.Estimate(ol)
		if err != nil {
			t.Fatal(err)
		}
		um, err := uin.Est.Estimate(ul)
		if err != nil {
			t.Fatal(err)
		}
		if om.Elapsed != um.Elapsed || om.Throughput != um.Throughput {
			t.Fatalf("class %v: unit metrics %+v != object metrics %+v", cls, um, om)
		}
	}
}

// optimizePartitioned runs OptimizeBest over in lowered onto pt, as the
// shipped callers do.
func optimizePartitioned(in Input, pt *catalog.Partitioning, opts Options) (*Result, error) {
	uin, err := in.Partitioned(pt)
	if err != nil {
		return nil, err
	}
	return OptimizeBest(uin, opts)
}

// TestPartitionedResultViews covers the object-granular views of a
// partitioned result: pt.SplitObjects counts the split tables, and
// pt.CollapseLayout refuses to collapse genuinely sub-object layouts and
// collapses uniform-per-object ones.
func TestPartitionedResultViews(t *testing.T) {
	box := device.Box2()
	in, fx := skewInput(t, box)
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := optimizePartitioned(in, pt, Options{RelativeSLA: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Feasible {
		t.Fatal("skew fixture must be feasible at SLA 0.2")
	}
	if pt.SplitObjects(pres.Layout) == 0 {
		t.Fatal("expected split objects on the skew fixture")
	}
	if _, ok := pt.CollapseLayout(pres.Layout); ok {
		t.Fatal("a split recommendation must refuse to collapse")
	}
	uniform := pt.ExpandLayout(catalog.NewUniformLayout(fx.Cat, device.HSSD))
	if pt.SplitObjects(uniform) != 0 {
		t.Fatal("uniform layout reports split objects")
	}
	ol, ok := pt.CollapseLayout(uniform)
	if !ok || !ol.Equal(catalog.NewUniformLayout(fx.Cat, device.HSSD)) {
		t.Fatal("uniform layout must collapse losslessly")
	}

	// Partitioned inputs reject foreign partitionings and plan-aware paths.
	if _, err := in.Partitioned(nil); err == nil {
		t.Fatal("nil partitioning must error")
	}
	other := catalog.IdentityPartitioning(catalog.New())
	if _, err := in.Partitioned(other); err == nil {
		t.Fatal("foreign partitioning must error")
	}
}
