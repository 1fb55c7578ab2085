package core_test

import (
	"math"
	"testing"

	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/tpch"
)

// TestDSSSearchParallel shares one plan-aware estimator — and so one set of
// per-query cost tables — between concurrent evaluations: OptimizeBest with
// Workers 8 runs its guarded and greedy sweeps at once, the exhaustive walk
// fans its subtrees out. Both must report what the sequential search does,
// on either evaluation path; run under -race this is the test that sees an
// unguarded table.
func TestDSSSearchParallel(t *testing.T) {
	orig := newDSSEnv(t, device.Box1(), false, tpch.OriginalWorkload)
	sub := newDSSEnv(t, device.Box1(), true, tpch.SubsetWorkload)
	for _, noCompile := range []bool{false, true} {
		type outcome struct {
			key                       string
			toc                       uint64
			evaluated, estimatorCalls int
		}
		var want [2]outcome
		for i, workers := range []int{1, 8, 8} {
			// A fresh estimator per search, so the parallel runs fill the
			// tables themselves rather than reading a sequential run's.
			in := orig.in
			in.Est, in.NoCompile, in.Workers = orig.w.Estimator(orig.db), noCompile, workers
			best, err := core.OptimizeBest(in, core.Options{RelativeSLA: 0.8})
			if err != nil {
				t.Fatal(err)
			}
			in = sub.in
			in.Est, in.NoCompile, in.Workers = sub.w.Estimator(sub.db), noCompile, workers
			es, err := core.Exhaustive(in, core.Options{RelativeSLA: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			for k, res := range []*core.Result{best, es} {
				got := outcome{res.Layout.Key(), math.Float64bits(res.TOCCents), res.Evaluated, res.EstimatorCalls}
				if i == 0 {
					want[k] = got
				} else if got != want[k] {
					t.Fatalf("noCompile=%v search %d with %d workers: %+v, sequential %+v", noCompile, k, workers, got, want[k])
				}
			}
		}
	}
}
