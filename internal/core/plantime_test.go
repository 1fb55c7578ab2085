package core

import (
	"sync"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// stampedEstimator forwards to a compiled estimator and records when the
// first and the last estimate of a search ran — a span no honest PlanTime
// can be shorter than.
type stampedEstimator struct {
	workload.DeltaEstimator
	mu          sync.Mutex
	first, last time.Time
}

func (s *stampedEstimator) stamp() {
	now := time.Now()
	s.mu.Lock()
	if s.first.IsZero() {
		s.first = now
	}
	s.last = now
	s.mu.Unlock()
}

func (s *stampedEstimator) EstimateCompactState(cl catalog.CompactLayout) (workload.Metrics, workload.DeltaState, error) {
	s.stamp()
	return s.DeltaEstimator.EstimateCompactState(cl)
}

func (s *stampedEstimator) EstimateDelta(cl catalog.CompactLayout, base workload.Metrics, state workload.DeltaState, moves []workload.ObjectMove) (workload.Metrics, workload.DeltaState, error) {
	s.stamp()
	return s.DeltaEstimator.EstimateDelta(cl, base, state, moves)
}

// TestPlanTimeIsTheWallClockOfTheCall: PlanTime is one clock around the
// whole search call. With two workers OptimizeBest's passes overlap, so
// their summed times exceed the time the caller waited; and a clock started
// after engine construction and move scoring, or around one pass, can fall
// short of the span between the search's first and last estimate. The
// fixture is the 500-unit skew catalog, wide enough for the passes to
// dominate the call.
func TestPlanTimeIsTheWallClockOfTheCall(t *testing.T) {
	fx, err := workload.Skewed(workload.SkewedConfig{Tables: 16, Extents: 32})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{
		MaxUnitsPerObject: 32, MergeRatio: 1, MinUnitBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	box := device.Box2()
	ps := NewProfileSet()
	ps.SetSingle(fx.Profile)
	in, err := Input{Cat: fx.Cat, Box: box, Est: fx.Estimator(box, 1), Profiles: ps, Concurrency: 1, Workers: 2}.Partitioned(pt)
	if err != nil {
		t.Fatal(err)
	}
	if in.Cat.NumObjects() < 500 {
		t.Fatalf("fixture yields %d units, want >= 500", in.Cat.NumObjects())
	}
	compiled, ok := workload.CompileEstimator(in.Est, in.Cat).(workload.DeltaEstimator)
	if !ok {
		t.Fatal("the skew fixture's estimator must compile to a delta estimator")
	}
	opts := Options{RelativeSLA: 0.2}
	check := func(what string, run func(Input) (*Result, error)) *Result {
		t.Helper()
		st := &stampedEstimator{DeltaEstimator: compiled}
		in := in
		in.Est = st
		t0 := time.Now()
		res, err := run(in)
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if res.PlanTime > wall {
			t.Fatalf("%s: PlanTime %v exceeds the %v the call took", what, res.PlanTime, wall)
		}
		if span := st.last.Sub(st.first); res.PlanTime < span {
			t.Fatalf("%s: PlanTime %v is shorter than the %v between the first and last estimate", what, res.PlanTime, span)
		}
		return res
	}
	cold := check("OptimizeBest", func(in Input) (*Result, error) { return OptimizeBest(in, opts) })
	if !cold.Feasible {
		t.Fatal("skew fixture infeasible")
	}
	check("OptimizeIncremental", func(in Input) (*Result, error) {
		return OptimizeIncremental(in, IncrementalOptions{Options: opts, Seed: cold.SetLayout})
	})
}
