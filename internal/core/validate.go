package core

import (
	"fmt"

	"dotprov/internal/catalog"
	"dotprov/internal/workload"
)

// Runner executes the workload for real under a layout (a test run on the
// simulator) and reports what was observed. It is the validation phase's
// probe (paper Fig. 2). DSS runners should fill Observation.PerQuery so the
// refinement phase can re-price real I/O counts.
type Runner interface {
	Run(l catalog.Layout) (workload.Observation, error)
}

// Validation reports one validation round.
type Validation struct {
	Layout    catalog.Layout
	Measured  workload.Metrics
	Obs       workload.Observation
	Satisfied bool
	PSR       float64
}

// Validate runs the workload on the recommended layout and checks the
// measured performance against cons, the constraints derived from a
// measured baseline run on L0.
func Validate(runner Runner, cons workload.Constraints, layout catalog.Layout) (*Validation, error) {
	obs, err := runner.Run(layout)
	if err != nil {
		return nil, fmt.Errorf("core: validation test run: %w", err)
	}
	return &Validation{
		Layout:    layout,
		Measured:  obs.Metrics,
		Obs:       obs,
		Satisfied: cons.Satisfied(obs.Metrics),
		PSR:       cons.PSR(obs.Metrics),
	}, nil
}

// OptimizeValidated runs the full pipeline of Figure 2: optimize, validate
// with a test run, and — when the test run misses the SLA — refine by
// re-optimizing from the real runtime statistics: the measured per-query
// I/O counts become both the move-scoring profile and the estimator
// (paper §3: the refinement phase "uses real runtime statistics ... as the
// input (instead of going to the profiling phase) to redo the optimization
// phase"). At most maxRounds refinement rounds run. The baseline the SLA
// is relative to is measured once, on L0, before the first validation run,
// and every round is checked against that one measurement: the runs are
// the costly part of the pipeline, and a runner with state must not move
// the reference between rounds. The returned result is the last search's
// recommendation, but its Evaluated, EstimatorCalls and PlanTime are summed
// over every search the call ran — the first and each refinement round —
// so they count the pipeline's whole search work (the test runs' time is
// not in PlanTime).
func OptimizeValidated(in Input, opts Options, runner Runner, maxRounds int) (*Result, *Validation, error) {
	res, err := Optimize(in, opts)
	if err != nil {
		return nil, nil, err
	}
	if !res.Feasible {
		return res, nil, nil
	}
	base, err := runner.Run(catalog.NewUniformLayout(in.Cat, in.Box.MostExpensive().Class))
	if err != nil {
		return nil, nil, fmt.Errorf("core: baseline test run: %w", err)
	}
	cons := workload.Constraints{Relative: opts.RelativeSLA, Baseline: base.Metrics}
	val, err := Validate(runner, cons, res.Layout)
	if err != nil {
		return nil, nil, err
	}
	rounds := 0
	prev := res.Layout
	for !val.Satisfied && rounds < maxRounds {
		rounds++
		if len(val.Obs.PerQuery) == 0 {
			// No per-query statistics (OLTP path): nothing finer to refine
			// with; report the best layout found so far.
			return res, val, nil
		}
		refined := NewProfileSet()
		refined.SetSingle(val.Obs.Profile)
		in2 := in
		in2.Profiles = refined
		in2.Moves = nil // shared lists are scored over the estimated profiles
		in2.Est = &workload.ObservedEstimator{
			Box:         in.Box,
			Concurrency: in.conc(),
			PerQuery:    val.Obs.PerQuery,
		}
		// The refined optimization stays in its own estimate space (its L0
		// estimate is the reference); the follow-up validation is what
		// checks reality. Mixing measured caps with frozen-plan repricing
		// would wrongly rule out every layout. Each round swaps in a new
		// estimator, so each round's Optimize builds a fresh engine:
		// memoized evaluations are only valid for the estimator that
		// produced them.
		next, err := Optimize(in2, opts)
		if err != nil {
			return nil, nil, err
		}
		next.Evaluated += res.Evaluated
		next.EstimatorCalls += res.EstimatorCalls
		next.PlanTime += res.PlanTime
		res = next
		if !res.Feasible {
			return res, val, nil
		}
		if res.Layout.Equal(prev) {
			// Fixed point: further rounds would repeat this layout.
			return res, val, nil
		}
		prev = res.Layout
		val, err = Validate(runner, cons, res.Layout)
		if err != nil {
			return nil, nil, err
		}
	}
	return res, val, nil
}
