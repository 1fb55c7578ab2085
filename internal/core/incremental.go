package core

import (
	"fmt"

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
	// lower. Nil admits every candidate. A gate must not retain ev: its
	// layout bytes are the engine's memo storage, recycled once the search
	// returns.
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
	copyCap := in.Replication.Cap()
	return in.dot(opts.Options, copyCap, func(eng *search.Engine, moves []Move) (*Result, error) {
		if len(opts.Seed) == 0 {
			return nil, fmt.Errorf("core: incremental search requires a seed layout")
		}
		return in.pass(opts, eng, moves, in.replicaTransitions(copyCap), guarded)
	})
}
