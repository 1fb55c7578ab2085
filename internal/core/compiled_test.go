package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// compiledFix mirrors newFix but drives the search through a compilable
// estimator (workload.ObservedEstimator), so the compiled fast path
// engages; in.NoCompile selects the map-form baseline for equivalence
// checks.
type compiledFix struct {
	cat  *catalog.Catalog
	box  *device.Box
	prof iosim.Profile
	est  workload.Estimator
	ids  map[string]catalog.ObjectID
}

func newCompiledFix(t *testing.T) *compiledFix {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	mk := func(name string, tabGB, ixGB float64) (catalog.ObjectID, catalog.ObjectID) {
		tab, err := cat.CreateTable(name, sch, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := cat.CreateIndex(name+"_pkey", tab.ID, []string{"id"}, true)
		if err != nil {
			t.Fatal(err)
		}
		cat.SetSize(tab.ID, int64(tabGB*1e9))
		cat.SetSize(ix.ID, int64(ixGB*1e9))
		return tab.ID, ix.ID
	}
	bigID, bigIx := mk("big", 20, 2)
	smallID, smallIx := mk("small", 1, 0.1)
	prof := iosim.NewProfile()
	prof.Add(bigID, device.SeqRead, 2.5e6)
	prof.Add(bigIx, device.RandRead, 1000)
	prof.Add(smallID, device.RandRead, 200000)
	prof.Add(smallIx, device.RandRead, 200000)
	box := device.Box1()
	return &compiledFix{
		cat: cat, box: box, prof: prof,
		est: &workload.ObservedEstimator{Box: box, Concurrency: 1,
			PerQuery: []workload.QueryObservation{{Profile: prof, CPU: 0}}},
		ids: map[string]catalog.ObjectID{
			"big": bigID, "big_pkey": bigIx, "small": smallID, "small_pkey": smallIx,
		},
	}
}

func (f *compiledFix) input() Input {
	ps := NewProfileSet()
	ps.SetSingle(f.prof)
	return Input{Cat: f.cat, Box: f.box, Est: f.est, Profiles: ps, Concurrency: 1}
}

// oltpInput builds a throughput-objective input over the same catalog.
func (f *compiledFix) oltpInput(t *testing.T) Input {
	t.Helper()
	est, err := workload.NewProfileEstimator(f.box, 4, f.prof, time.Second,
		workload.RunStats{Txns: 10000, Elapsed: 2 * time.Minute},
		catalog.NewUniformLayout(f.cat, device.HSSD))
	if err != nil {
		t.Fatal(err)
	}
	in := f.input()
	in.Est = est
	in.Concurrency = 4
	return in
}

// requireSameOutcome checks result equivalence up to work counts: same
// feasibility, layout, TOC bits and metrics. It is the contract pruning
// paths must honour — they may evaluate fewer candidates, never report a
// different winner.
func requireSameOutcome(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one result nil", name)
	}
	if a.Feasible != b.Feasible {
		t.Fatalf("%s: feasibility %v vs %v", name, a.Feasible, b.Feasible)
	}
	if !a.Layout.Equal(b.Layout) {
		t.Fatalf("%s: layouts differ:\n%v\nvs\n%v", name, a.Layout, b.Layout)
	}
	if math.Float64bits(a.TOCCents) != math.Float64bits(b.TOCCents) {
		t.Fatalf("%s: TOC %v vs %v (not bit-identical)", name, a.TOCCents, b.TOCCents)
	}
	if a.Metrics.Elapsed != b.Metrics.Elapsed ||
		math.Float64bits(a.Metrics.Throughput) != math.Float64bits(b.Metrics.Throughput) {
		t.Fatalf("%s: metrics differ: %+v vs %+v", name, a.Metrics, b.Metrics)
	}
	if len(a.Metrics.PerQuery) != len(b.Metrics.PerQuery) {
		t.Fatalf("%s: per-query lengths differ", name)
	}
	for i := range a.Metrics.PerQuery {
		if a.Metrics.PerQuery[i] != b.Metrics.PerQuery[i] {
			t.Fatalf("%s: per-query %d differs", name, i)
		}
	}
}

func requireSameResult(t *testing.T, name string, a, b *Result) {
	t.Helper()
	requireSameOutcome(t, name, a, b)
	if a.Evaluated != b.Evaluated {
		t.Fatalf("%s: evaluated %d vs %d", name, a.Evaluated, b.Evaluated)
	}
	if a.EstimatorCalls != b.EstimatorCalls {
		t.Fatalf("%s: estimator calls %d vs %d", name, a.EstimatorCalls, b.EstimatorCalls)
	}
}

// TestCompiledPathMatchesMapPath is the compiled path's safety net: every
// search entry point must return byte-identical results (layout, TOC bits,
// metrics) with the compiled estimator as with its map form (NoCompile),
// for DSS and OLTP objectives, sequential and parallel — with identical
// evaluated and estimator-call counts for the DOT sweeps, and no more
// evaluations than the unpruned walk for the exhaustive ones (the map form
// offers the walk no bound and no dominance).
func TestCompiledPathMatchesMapPath(t *testing.T) {
	type variant struct {
		name string
		oltp bool
	}
	for _, v := range []variant{{"dss", false}, {"oltp", true}} {
		for _, workers := range []int{1, 8} {
			run := func(noCompile bool) map[string]*Result {
				f := newCompiledFix(t)
				var in Input
				if v.oltp {
					in = f.oltpInput(t)
				} else {
					in = f.input()
				}
				in.Workers = workers
				in.NoCompile = noCompile
				out := map[string]*Result{}
				rec := func(name string, res *Result, err error) {
					if err != nil {
						t.Fatalf("%s/%s workers=%d: %v", v.name, name, workers, err)
					}
					out[name] = res
				}
				for _, sla := range []float64{0.5, 0.25} {
					opts := Options{RelativeSLA: sla}
					res, err := Optimize(in, opts)
					rec("optimize", res, err)
					res, err = OptimizeBest(in, opts)
					rec("best", res, err)
					res, err = Exhaustive(in, opts)
					rec("exhaustive", res, err)
					res, err = ExhaustivePartial(in, opts,
						[]catalog.ObjectID{f.ids["big"], f.ids["big_pkey"]},
						catalog.NewUniformLayout(f.cat, device.HSSD))
					rec("partial", res, err)
				}
				res, _, err := OptimizeRelaxing(in, Options{RelativeSLA: 0.9}, 0.01)
				rec("relaxing", res, err)
				return out
			}
			compiled := run(false)
			for name, want := range run(true) {
				label := v.name + "/" + name + "/workers=" + string(rune('0'+workers))
				got := compiled[name]
				switch name {
				case "exhaustive", "partial":
					requireSameOutcome(t, label, got, want)
					if got.Evaluated > want.Evaluated {
						t.Fatalf("%s: branch-and-bound evaluated %d, the unpruned walk %d", label, got.Evaluated, want.Evaluated)
					}
				default:
					requireSameResult(t, label, got, want)
				}
			}
		}
	}
}

// TestCompiledEngineEngages: the fixture's estimator really does hand the
// engine its compiled form (guarding against a silent fallback to the map
// form, which would make the equivalence suite vacuous), and NoCompile
// really does hand it the map form.
func TestCompiledEngineEngages(t *testing.T) {
	f := newCompiledFix(t)
	in := f.input()
	if _, ok := in.searchEstimator(in.alphabet(1)).(workload.Compilable); !ok {
		t.Fatal("ObservedEstimator input should search its compiled form")
	}
	in.NoCompile = true
	if _, ok := in.searchEstimator(in.alphabet(1)).(workload.Compilable); ok {
		t.Fatal("NoCompile must hand the search the map form")
	}
	in = f.input()
	in.LayoutCost = func(catalog.ClassSpace) (float64, error) { return 1, nil }
	if _, ok := in.searchEstimator(in.alphabet(1)).(workload.Compilable); !ok {
		t.Fatal("a custom LayoutCost keeps the compiled form")
	}
}

// consolidationCost is a custom cost model with the §5.2 model's shape: a
// flat fee for every class holding data on top of the linear share, so
// spreading over classes is not free.
func consolidationCost(box *device.Box) func(catalog.ClassSpace) (float64, error) {
	return func(sp catalog.ClassSpace) (float64, error) {
		var total float64
		for c, bytes := range sp.Bytes {
			if bytes == 0 {
				continue
			}
			d := box.Device(device.Class(c))
			if d == nil {
				return 0, fmt.Errorf("class %v absent from box %q", device.Class(c), box.Name)
			}
			total += 0.25 + d.PriceCents*float64(bytes)/1e9
		}
		return total, nil
	}
}

// TestCustomLayoutCostOnBothPaths: one LayoutCost function prices the
// search over the compiled estimator and over its map form with identical
// results, and carries over to a partitioned input — under an identity
// partitioning the unit problem prices bit-identically to the object
// problem.
func TestCustomLayoutCostOnBothPaths(t *testing.T) {
	f := newCompiledFix(t)
	opts := Options{RelativeSLA: 0.25}
	for name, in := range map[string]Input{"dss": f.input(), "oltp": f.oltpInput(t)} {
		linear, err := OptimizeBest(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		in.LayoutCost = consolidationCost(in.Box)
		if _, ok := in.searchEstimator(in.alphabet(1)).(workload.Compilable); !ok {
			t.Fatalf("%s: the custom model must not cost the compiled form", name)
		}
		mapped := in
		mapped.NoCompile = true
		best, err := OptimizeBest(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if best.TOCCents == linear.TOCCents {
			t.Fatalf("%s: the custom model priced like the linear one (%v)", name, best.TOCCents)
		}
		want, err := OptimizeBest(mapped, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, name+"/best", best, want)
		es, err := Exhaustive(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = Exhaustive(mapped, opts); err != nil {
			t.Fatal(err)
		}
		requireSameOutcome(t, name+"/exhaustive", es, want)

		pt := catalog.IdentityPartitioning(in.Cat)
		for _, unit := range []Input{in, mapped} {
			part, err := optimizePartitioned(unit, pt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(part.TOCCents) != math.Float64bits(best.TOCCents) || part.Feasible != best.Feasible {
				t.Fatalf("%s (NoCompile=%v): identity-partitioned search found TOC %v, object search %v — the cost model did not carry over",
					name, unit.NoCompile, part.TOCCents, best.TOCCents)
			}
		}
	}
}

// TestObjectAdvisorExactFit: an object that exactly fills the fast class's
// remaining budget is admitted (the >= off-by-one rejected it).
func TestObjectAdvisorExactFit(t *testing.T) {
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	tab, err := cat.CreateTable("hot", sch, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	cat.SetSize(tab.ID, 2e9)
	prof := iosim.NewProfile()
	prof.Add(tab.ID, device.RandRead, 1e6)
	box := device.Box1()
	if err := box.SetCapacity(device.HSSD, 2e9); err != nil {
		t.Fatal(err)
	}
	ps := NewProfileSet()
	ps.SetSingle(prof)
	in := Input{Cat: cat, Box: box,
		Est:      &workload.ObservedEstimator{Box: box, Concurrency: 1, PerQuery: []workload.QueryObservation{{Profile: prof}}},
		Profiles: ps, Concurrency: 1}
	layout, err := ObjectAdvisor(in)
	if err != nil {
		t.Fatal(err)
	}
	if layout[tab.ID] != device.HSSD {
		t.Fatalf("exact-fit object landed on %v, want the fast class", layout[tab.ID])
	}
}
