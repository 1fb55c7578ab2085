package provision

import (
	"math"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
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
// any worker width, and spend the same number of underlying estimator
// calls (the shared memo dedups identically on both paths).
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

// TestDiscreteCostModelsParity: the compact form of the §5.2 model must
// price every layout bit-identically to the map form, including the
// degenerate alpha endpoints.
func TestDiscreteCostModelsParity(t *testing.T) {
	grid := sweepGrid()
	in := compiledSweepBase(t, grid, 1)
	box := grid.Universe()
	for _, alpha := range []float64{0, 0.35, 1} {
		mapModel, compactModel, err := DiscreteCostModels(in.Cat, box, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for _, cls := range box.Classes() {
			l := catalog.NewUniformLayout(in.Cat, cls)
			l[1] = device.HSSD // mixed layout
			want, err := mapModel(l)
			if err != nil {
				t.Fatal(err)
			}
			cl, ok := catalog.CompactFromSetLayout(in.Cat, catalog.SingletonSetLayout(l))
			if !ok {
				t.Fatal("layout must encode")
			}
			got, err := compactModel(cl)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("alpha=%g class=%v: map %v vs compact %v", alpha, cls, want, got)
			}
		}
	}
	if _, _, err := DiscreteCostModels(in.Cat, box, 1.5); err == nil {
		t.Fatal("alpha out of range must error")
	}
}
