package core

import (
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// TestParallelSearchMatchesSequential is the determinism contract of the
// shared search engine: every entry point must return byte-identical
// Layout/TOCCents/Feasible (and Evaluated) results at any worker-pool
// width.
func TestParallelSearchMatchesSequential(t *testing.T) {
	type outcome struct {
		layout   catalog.Layout
		toc      float64
		feasible bool
		eval     int
	}
	run := func(t *testing.T, workers int) map[string]outcome {
		t.Helper()
		f := newFix(t)
		in := f.input()
		in.Workers = workers
		out := make(map[string]outcome)
		record := func(name string, res *Result, err error) {
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", name, workers, err)
			}
			out[name] = outcome{res.Layout, res.TOCCents, res.Feasible, res.Evaluated}
		}
		for _, sla := range []float64{0.5, 0.25} {
			opts := Options{RelativeSLA: sla}
			res, err := Optimize(in, opts)
			record("optimize", res, err)
			res, err = OptimizeBest(in, opts)
			record("best", res, err)
			res, err = Exhaustive(in, opts)
			record("exhaustive", res, err)
			res, err = ExhaustivePartial(in, opts,
				[]catalog.ObjectID{f.ids["big"], f.ids["big_pkey"]},
				catalog.NewUniformLayout(f.cat, device.HSSD))
			record("partial", res, err)
		}
		return out
	}
	seq := run(t, 1)
	par := run(t, 8)
	for name, want := range seq {
		got := par[name]
		if !got.layout.Equal(want.layout) || got.toc != want.toc ||
			got.feasible != want.feasible || got.eval != want.eval {
			t.Errorf("%s: parallel result differs: %+v vs sequential %+v", name, got, want)
		}
	}
}

// TestOptimizeBestSharesMemo is the economic point of the shared engine:
// the second sweep revisits the first's evaluations, so OptimizeBest must
// estimate strictly fewer distinct layouts than two independent Optimize
// runs — while still reporting the summed Evaluated count.
func TestOptimizeBestSharesMemo(t *testing.T) {
	f := newFix(t)
	in := f.input()
	opts := Options{RelativeSLA: 0.5}
	a, err := Optimize(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := optimizeGreedy(t, in, opts)
	best, err := OptimizeBest(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	separate := a.EstimatorCalls + b.EstimatorCalls
	if best.EstimatorCalls >= separate {
		t.Fatalf("memoized OptimizeBest made %d estimator calls, separate sweeps %d — memo not shared",
			best.EstimatorCalls, separate)
	}
	if best.EstimatorCalls <= 0 || best.EstimatorCalls > best.Evaluated {
		t.Fatalf("EstimatorCalls %d out of range (Evaluated %d)", best.EstimatorCalls, best.Evaluated)
	}
	if best.Evaluated != a.Evaluated+b.Evaluated {
		t.Fatalf("Evaluated %d, want summed %d", best.Evaluated, a.Evaluated+b.Evaluated)
	}
	if best.PlanTime <= 0 {
		t.Fatal("OptimizeBest must report the summed PlanTime")
	}
}

// TestRelaxingClampsAtMinSLA: when no layout is ever feasible the halving
// loop must walk down to minSLA, report infeasibility there, and stop —
// even for a non-positive minSLA, which previously could loop forever.
func TestRelaxingClampsAtMinSLA(t *testing.T) {
	impossible := func(t *testing.T) Input {
		f := newFix(t)
		for _, c := range f.box.Classes() {
			f.box.SetCapacity(c, 1)
		}
		return f.input()
	}
	res, sla, err := OptimizeRelaxing(impossible(t), Options{RelativeSLA: 0.8}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("nothing fits; result must be infeasible")
	}
	if sla != 0.05 {
		t.Fatalf("DOT relaxation stopped at SLA %g, want the 0.05 clamp", sla)
	}
	// Degenerate minSLA values must still terminate (the internal floor).
	if _, sla, err = OptimizeRelaxing(impossible(t), Options{RelativeSLA: 0.8}, 0); err != nil {
		t.Fatal(err)
	}
	if sla <= 0 {
		t.Fatalf("relaxation with minSLA 0 returned SLA %g", sla)
	}
}

// TestRelaxingSharesMemoAcrossLevels: halving the SLA re-checks memoized
// evaluations instead of re-estimating them, so the final round of a
// relaxing run estimates fewer layouts than a cold search at the same SLA.
func TestRelaxingSharesMemoAcrossLevels(t *testing.T) {
	f := newFix(t)
	for _, c := range f.box.Classes() {
		if c != device.HDDRAID0 {
			f.box.SetCapacity(c, 3e9)
		}
	}
	res, sla, err := OptimizeRelaxing(f.input(), Options{RelativeSLA: 0.99}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || sla >= 0.99 {
		t.Fatalf("expected a relaxed feasible result, got feasible=%v sla=%g", res.Feasible, sla)
	}
	cold, err := Optimize(f.input(), Options{RelativeSLA: sla})
	if err != nil {
		t.Fatal(err)
	}
	// The same SLA walks the same candidates, warm or cold.
	if res.Evaluated != 34 || cold.Evaluated != 34 {
		t.Fatalf("final round evaluated %d layouts, cold search %d, want 34", res.Evaluated, cold.Evaluated)
	}
	// The earlier SLA levels warmed the memo: the final round estimates 6
	// of them, the cold search 18. L0 is over capacity here, and every
	// round's cold sweep walks on from it through layouts that do not fit
	// either, so the earlier rounds have estimated most of the layouts the
	// final round crosses.
	if res.EstimatorCalls != 6 || cold.EstimatorCalls != 18 {
		t.Fatalf("final round made %d estimator calls, cold search %d, want 6 and 18 (memo)",
			res.EstimatorCalls, cold.EstimatorCalls)
	}
}

// TestExhaustivePartialInfeasibleFallbackConsistent: the infeasible report
// must price and estimate the SAME layout (the pinned base) — previously
// the metrics came from L0 while the TOC came from base.
func TestExhaustivePartialInfeasibleFallbackConsistent(t *testing.T) {
	f := newFix(t)
	for _, c := range f.box.Classes() {
		f.box.SetCapacity(c, 1)
	}
	in := f.input()
	// A base that is NOT L0, so the old inconsistency would be visible.
	base := catalog.NewUniformLayout(f.cat, device.LSSD)
	res, err := ExhaustivePartial(in, Options{RelativeSLA: 0.5},
		[]catalog.ObjectID{f.ids["big"]}, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("nothing fits; result must be infeasible")
	}
	if !res.Layout.Equal(base) {
		t.Fatal("fallback must report the pinned base layout")
	}
	wantMetrics, err := in.Est.Estimate(base)
	if err != nil {
		t.Fatal(err)
	}
	wantTOC, err := workload.TOCCents(wantMetrics, base, f.cat, f.box)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Elapsed != wantMetrics.Elapsed {
		t.Fatalf("fallback metrics estimated under %v, want under base (elapsed %v vs %v)",
			res.Layout, res.Metrics.Elapsed, wantMetrics.Elapsed)
	}
	if res.TOCCents != wantTOC {
		t.Fatalf("fallback TOC %g, want %g (priced under base)", res.TOCCents, wantTOC)
	}
}
