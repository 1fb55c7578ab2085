package core

import (
	"fmt"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/search"
	"dotprov/internal/workload"
)

// IncrementalOptions parameterizes OptimizeIncremental: the regular search
// options plus the deployed layout to start from and an optional candidate
// admission gate.
type IncrementalOptions struct {
	Options
	// Seed is the currently deployed layout. The sweep starts from it (not
	// from L0), so under a mildly drifted profile most groups keep their
	// placement and the recommendation is a small set of unit moves.
	Seed catalog.SetLayout
	// Accept optionally vets a candidate before it can be adopted or walked
	// to, on top of capacity and the SLA. It receives the constraint set
	// derived from the L0 baseline so gates can reason about SLA headroom.
	// Online re-advising installs the migration budget here: a candidate
	// whose migration time (bytes moved off Seed — read sequentially at
	// the source class, rewritten at the destination class's write rate)
	// exceeds the headroom is rejected even if its steady-state TOC is
	// lower. Nil admits every candidate.
	Accept func(ev search.Eval, cons workload.Constraints) bool
}

// OptimizeIncremental is the online variant of OptimizeBest at the input's
// copy cap: instead of walking down from L0 (every object on the most
// expensive class), it seeds the sweep with the layout currently deployed
// and looks for gated, TOC-improving group moves away from it; above a cap
// of one, gated add/drop/swap refinements then grow and shed copies from
// the deployed sets. Copies drop as freely as they are added — a reverted
// workload sheds its extra analytics copy on the next re-advise.
//
// It evaluates the L0 baseline once (the relative SLA is defined against
// it, exactly as in the offline search), evaluates the seed, and then runs
// a single guarded pass from it. A seed that places an object the catalog
// lacks, or places one on something that is not a class set, is refused.
// Compared to a cold OptimizeBest this skips the uniform-layout anchors
// and the second (greedy) policy, so it evaluates strictly fewer
// candidates — the point of re-advising online is that a small profile
// drift should cost a small search.
//
// When no gated feasible candidate exists — the seed violates the drifted
// SLA and every admissible move does too — the result reports
// Feasible=false with the seed's numbers, and the caller decides whether to
// relax the gate or fall back to a full cold search (online.Manager does
// the latter).
func OptimizeIncremental(in Input, opts IncrementalOptions) (*Result, error) {
	start := time.Now()
	copyCap := in.Replication.Cap()
	eng, moves, err := in.setup(opts.Options, copyCap)
	if err != nil {
		return nil, err
	}
	if len(opts.Seed) == 0 {
		return nil, fmt.Errorf("core: incremental search requires a seed layout")
	}
	seedCompact, err := in.encode("seed", opts.Seed)
	if err != nil {
		return nil, err
	}
	stats0 := eng.Stats()
	_, _, cons, err := in.prep(opts.Options, eng)
	if err != nil {
		return nil, err
	}
	evSeed, err := eng.EvaluateCompact(seedCompact)
	if err != nil {
		return nil, fmt.Errorf("core: estimating seed layout: %w", err)
	}
	res := &Result{Constraints: cons, Evaluated: 2} // L0 baseline + seed
	// Staying put moves zero bytes, so the seed bypasses the gate; L0 is a
	// constraint anchor only, never an incremental candidate (adopting it
	// would be a full-database migration).
	res.consider(evSeed, cons)

	if err := dotSweep(eng.NewCursor(evSeed), moves, cons, res, 1, guarded, opts.Accept); err != nil {
		return nil, err
	}
	if trans := in.replicaTransitions(copyCap); trans != nil {
		from := evSeed
		if res.Feasible {
			from = res.best
		}
		if err := refineSweep(eng.NewCursor(from), in.Cat.Objects(), trans, cons, res, 1, opts.Accept); err != nil {
			return nil, err
		}
	}
	if !res.Feasible {
		// No gated feasible layout: report the seed's numbers (not L0's) so
		// the caller sees what the deployed layout costs under the drifted
		// profile while deciding how to proceed.
		res.fallBack(evSeed)
	}
	res.EstimatorCalls = eng.Stats().Sub(stats0).EstimatorCalls
	res.PlanTime = time.Since(start)
	res.Search.Candidates = res.Evaluated
	return res.finish(), nil
}
