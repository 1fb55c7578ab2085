package provision

import (
	"fmt"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/search"
	"dotprov/internal/workload"
)

// SweepConfigurations solves the generalized provisioning problem over a
// declarative grid (§5.1 + §5.2): every candidate box enumerated from the
// grid is priced with its alpha blend point of the discrete-sized cost
// model, and each candidate's inner layout search runs on an engine of its
// own (internal/search) under
//
//   - one compilation of the estimator: base.Est is compiled once, for every
//     class set any candidate may place, and every candidate's engine reads
//     those tables (estimator metrics depend only on the layout's classes,
//     not on unit counts or prices). No evaluation is shared between
//     candidates — a compiled estimate costs less than a shared memo's
//     probe;
//   - one scoring of the move list per class list: a move's score reads
//     each class's price and service times, never a unit count, so every
//     candidate box that lists the same classes searches one shared,
//     read-only move list (core.MoveLists); and
//   - a global worker budget: base.Budget (or a fresh budget of width
//     base.Workers when unset) bounds concurrent estimator invocations
//     across ALL in-flight candidate searches, not per candidate. Passing a
//     budget shared with other sweeps extends the bound across them (e.g.
//     one server-wide budget over all concurrent requests).
//
// base supplies Cat, Est, Profiles, Concurrency, Replication and the worker
// budget; its Box, LayoutCost and Moves are ignored and rebound. For
// a sweep at partition granularity, lower base first (core.Input.Partitioned).
// base.Est must be bound to a box covering every class in the grid (see
// Grid.Universe) and, when the budget is wider than 1, safe for concurrent
// use (the workload.Estimator contract).
//
// Every candidate's inner search places class sets up to base's copy cap
// (base.Replication.Cap()). A cap above one prices only under the linear
// cost model, so such a sweep refuses grids with nonzero alpha points.
//
// The sweep is deterministic at any worker count: candidates keep their
// enumeration index, every inner search is itself deterministic, and TOC
// ties break toward the lowest index — the sequential first-found-wins rule.
// Infeasible candidates carry a Failure diagnosis; a candidate whose search
// errors fails the sweep with the lowest-index error.
func SweepConfigurations(base core.Input, grid Grid, opts core.Options) (*Choice, error) {
	copyCap := base.Replication.Cap()
	if copyCap > 1 {
		for _, a := range grid.Alphas {
			if a != 0 {
				return nil, fmt.Errorf("provision: replicated sweep prices only the linear cost model (alpha 0), got alpha %g", a)
			}
		}
	}
	specs, err := grid.Enumerate()
	if err != nil {
		return nil, err
	}
	if base.Est == nil {
		return nil, fmt.Errorf("provision: sweep requires an estimator")
	}
	// One compilation for every class set any candidate may enumerate;
	// estimators without a compiled form pass through unchanged.
	alphabet := device.EnumerateClassSets(grid.Universe().Classes(), copyCap)
	est := workload.CompileEstimator(base.Est, base.Cat, alphabet...)
	moves := &core.MoveLists{}
	budget := base.Budget
	if budget == nil {
		budget = search.NewBudget(base.Workers)
	}
	results := make([]CandidateResult, len(specs))
	err = search.Parallel(budget.Workers(), len(specs), func(i int) error {
		spec := specs[i]
		box := spec.Box()
		in := base
		in.Box = box
		in.Est = est
		in.Moves = moves
		in.Budget = budget
		if copyCap == 1 {
			model, err := DiscreteCost(box, spec.Alpha)
			if err != nil {
				return err
			}
			in.LayoutCost = model
		}
		// Both application policies (guarded + greedy) rather than one pass:
		// the discrete-sized model has cost valleys a monotonic walk cannot
		// cross, and both passes share the engine memo anyway.
		res, err := core.OptimizeBest(in, opts)
		if err != nil {
			return fmt.Errorf("provision: candidate %q: %w", spec.Name, err)
		}
		results[i] = CandidateResult{Name: spec.Name, Spec: spec, Result: res}
		if !res.Feasible {
			results[i].Failure = InfeasibilityReason(base.Cat, box, opts)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ch := &Choice{Best: -1, Results: results}
	for i, r := range results {
		ch.Evaluated += r.Result.Evaluated
		ch.EstimatorCalls += r.Result.EstimatorCalls
		// Only a strictly cheaper candidate displaces Best, so ties go to
		// the lowest index.
		if r.Result.Feasible && (ch.Best < 0 || r.Result.TOCCents < results[ch.Best].Result.TOCCents) {
			ch.Best = i
		}
	}
	return ch, nil
}

// InfeasibilityReason explains why a candidate produced no feasible layout:
// the capacity cases (database larger than the box; one object larger than
// every class; a database the most expensive class cannot hold, so the
// search started over capacity at L0) are distinguished from the SLA case,
// so Choice.Best == -1 is diagnosable per candidate instead of a bare
// "nothing fit".
func InfeasibilityReason(cat *catalog.Catalog, box *device.Box, opts core.Options) string {
	if r := CapacityInfeasibility(cat, box); r != "" {
		return r
	}
	if top := box.MostExpensive(); cat.TotalSize() >= top.CapacityBytes {
		return fmt.Sprintf("over capacity at the start: the database needs %.2f GB and the most expensive class %v holds %.2f GB; no evaluated layout fit the box within the relative SLA %g — add capacity to the faster classes or relax the SLA",
			float64(cat.TotalSize())/1e9, top.Class, float64(top.CapacityBytes)/1e9, opts.RelativeSLA)
	}
	return fmt.Sprintf("SLA unmet: no evaluated layout satisfied the relative SLA %g within capacity — relax the SLA or add faster/larger classes", opts.RelativeSLA)
}

// CapacityInfeasibility reports the structural capacity problems a box has
// with a catalog — the database outsizing the box, or a single object no
// class can hold — and "" when capacity fits. It is the capacity-only
// slice of InfeasibilityReason, for callers (serve's error bodies) that
// must not imply anything about SLA evaluation.
func CapacityInfeasibility(cat *catalog.Catalog, box *device.Box) string {
	need := cat.TotalSize()
	have := box.TotalCapacityBytes()
	if need >= have {
		return fmt.Sprintf("over capacity: database needs %.2f GB, box holds %.2f GB", float64(need)/1e9, float64(have)/1e9)
	}
	var maxDev int64
	for _, d := range box.Devices {
		if d.CapacityBytes > maxDev {
			maxDev = d.CapacityBytes
		}
	}
	for _, o := range cat.Objects() {
		if o.SizeBytes >= maxDev {
			return fmt.Sprintf("over capacity: object %q (%.2f GB) exceeds every class in the box (largest %.2f GB)",
				o.Name, float64(o.SizeBytes)/1e9, float64(maxDev)/1e9)
		}
	}
	return ""
}
