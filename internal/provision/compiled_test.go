package provision

import (
	"math"
	"math/rand"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// compiledSweepBase is sweepBase with a compilable estimator
// (workload.ObservedEstimator), so SweepConfigurations runs its candidate
// searches on the search engine's compiled path.
func compiledSweepBase(t *testing.T, grid Grid, workers int) core.Input {
	t.Helper()
	in, counting := sweepBase(t, grid, workers)
	in.Est = &workload.ObservedEstimator{
		Box:         grid.Universe(),
		Concurrency: 1,
		PerQuery:    []workload.QueryObservation{{Profile: counting.prof}},
	}
	return in
}

// TestSweepCompiledMatchesMap: the full §5 grid sweep must pick the same
// winner with bit-identical TOCs on the compiled path as with NoCompile, at
// any worker width, and spend the same number of estimator calls (the
// candidates' engine memos miss identically on both paths).
func TestSweepCompiledMatchesMap(t *testing.T) {
	grid := sweepGrid()
	opts := core.Options{RelativeSLA: 0.25}
	run := func(noCompile bool, workers int) *Choice {
		in := compiledSweepBase(t, grid, workers)
		in.NoCompile = noCompile
		ch, err := SweepConfigurations(in, grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	want := run(true, 1)
	for _, workers := range []int{1, 8} {
		got := run(false, workers)
		if got.Best != want.Best || got.Evaluated != want.Evaluated {
			t.Fatalf("workers=%d: compiled sweep best=%d evaluated=%d, map best=%d evaluated=%d",
				workers, got.Best, got.Evaluated, want.Best, want.Evaluated)
		}
		if got.EstimatorCalls != want.EstimatorCalls {
			t.Fatalf("workers=%d: compiled sweep estimator calls %d, map %d",
				workers, got.EstimatorCalls, want.EstimatorCalls)
		}
		for i := range want.Results {
			a, b := got.Results[i], want.Results[i]
			if a.Result.Feasible != b.Result.Feasible {
				t.Fatalf("workers=%d candidate %q: feasibility diverged", workers, a.Name)
			}
			if math.Float64bits(a.Result.TOCCents) != math.Float64bits(b.Result.TOCCents) {
				t.Fatalf("workers=%d candidate %q: TOC %v vs %v", workers, a.Name, a.Result.TOCCents, b.Result.TOCCents)
			}
			if !a.Result.Layout.Equal(b.Result.Layout) {
				t.Fatalf("workers=%d candidate %q: layouts diverged", workers, a.Name)
			}
		}
	}
}

// TestDiscreteCostModelsParity: the §5.2 model's two forms agree bit for
// bit — the layout-form adapter (what reports and the benchmark's checker
// price with) and the function the search calls on the layout's per-class
// totals, however those were obtained (a full compact walk here) — over
// random layouts, including the degenerate alpha endpoints.
func TestDiscreteCostModelsParity(t *testing.T) {
	cat, _, _ := goldenFixture(t)
	box := sweepGrid().Universe()
	classes := box.Classes()
	rng := rand.New(rand.NewSource(52))
	for _, alpha := range []float64{0, 0.35, 0.5, 1} {
		adapter, err := DiscreteCostModel(cat, box, alpha)
		if err != nil {
			t.Fatal(err)
		}
		model, err := DiscreteCost(box, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			l := make(catalog.Layout)
			for _, o := range cat.Objects() {
				l[o.ID] = classes[rng.Intn(len(classes))]
			}
			want, err := adapter(l)
			if err != nil {
				t.Fatal(err)
			}
			cl, ok := catalog.CompactFromSetLayout(cat, catalog.SingletonSetLayout(l))
			if !ok {
				t.Fatal("layout must encode")
			}
			got, err := model(cl.Space(cat.DenseSizeBytes()))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("alpha=%g layout %v: adapter %v vs model %v", alpha, l, want, got)
			}
		}
	}
	if _, err := DiscreteCost(box, 1.5); err == nil {
		t.Fatal("alpha out of range must error")
	}
	// A class the box lacks is an error on either form.
	adapter, err := DiscreteCostModel(cat, device.Box1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adapter(catalog.NewUniformLayout(cat, device.LSSDRAID0)); err == nil {
		t.Fatal("a layout on a class absent from the box must not price")
	}
}

// TestExhaustiveDiscreteCollapsesSymmetricUnits: under the §5.2 model the
// compiled exhaustive walk keeps its dominance collapse — the model reads
// per-class totals only, so interchangeable units are interchangeable under
// it too — and still returns what the unpruned enumeration under NoCompile
// returns, bit for bit, after fewer candidates.
func TestExhaustiveDiscreteCollapsesSymmetricUnits(t *testing.T) {
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	prof := iosim.NewProfile()
	for i := 0; i < 6; i++ {
		tab, err := cat.CreateTable(string(rune('a'+i)), sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(i/3 + 1) // two groups of three identical tables
		cat.SetSize(tab.ID, k*12e9)
		prof.Add(tab.ID, device.SeqRead, float64(k)*4e5)
		prof.Add(tab.ID, device.RandRead, float64(k)*2e4)
	}
	box := device.Box1()
	for _, alpha := range []float64{0.35, 1} {
		model, err := DiscreteCost(box, alpha)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Input{
			Cat: cat, Box: box, Concurrency: 1,
			Est: &workload.ObservedEstimator{Box: box, Concurrency: 1,
				PerQuery: []workload.QueryObservation{{Profile: prof}}},
			LayoutCost: model,
		}
		opts := core.Options{RelativeSLA: 0.3}
		got, err := core.Exhaustive(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		in.NoCompile = true
		want, err := core.Exhaustive(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Feasible || got.Feasible != want.Feasible || !got.Layout.Equal(want.Layout) ||
			math.Float64bits(got.TOCCents) != math.Float64bits(want.TOCCents) {
			t.Fatalf("alpha=%g: collapsed walk found %v at %v, full enumeration %v at %v",
				alpha, got.Layout, got.TOCCents, want.Layout, want.TOCCents)
		}
		if got.Layout[1] == got.Layout[3] {
			t.Fatalf("alpha=%g: winner %v does not split a symmetry group — the tie-break goes untested", alpha, got.Layout)
		}
		if got.Search.Groups != 2 || got.Evaluated >= want.Evaluated {
			t.Fatalf("alpha=%g: %d symmetry groups, %d candidates of the full walk's %d — nothing collapsed",
				alpha, got.Search.Groups, got.Evaluated, want.Evaluated)
		}
	}
}
