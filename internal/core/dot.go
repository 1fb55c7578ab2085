package core

import (
	"fmt"
	"sync"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/search"
	"dotprov/internal/workload"
)

// Input bundles what the layout algorithms need: the database metadata and
// sizes, the box of storage devices, the TOC/performance estimator
// (extended optimizer for DSS, profile-based for OLTP), and the workload
// profiles for move scoring.
type Input struct {
	Cat         *catalog.Catalog
	Box         *device.Box
	Est         workload.Estimator
	Profiles    *ProfileSet
	Concurrency int
	// Workers bounds the search engine's evaluation fan-out. Values below 2
	// keep every evaluation on the calling goroutine; higher values require
	// Est to be safe for concurrent use (see workload.Estimator). Results
	// are identical either way.
	Workers int
	// Budget optionally shares one evaluation worker budget across several
	// inputs' engines (overriding Workers when set). Provisioning sweeps use
	// it to bound total estimator concurrency while many candidate searches
	// run at once. Results are identical with or without it.
	Budget *search.Budget
	// LayoutCost optionally overrides the layout cost model C(L) in
	// cent/hour (default: the linear model of §2.1); the discrete-sized
	// model of §5.2 plugs in here (provision.DiscreteCost). A model is a
	// function of the layout's per-class totals — all a search keeps of a
	// candidate, and all a price may read — so a sweep prices a candidate
	// from its predecessor's totals, exhaustive search keeps its dominance
	// collapse under it, and it carries over to a partitioned input
	// unchanged. It applies at a copy cap of one only.
	LayoutCost func(sp catalog.ClassSpace) (float64, error)
	// NoCompile hands the search the estimator's map form
	// (workload.MapForm) instead of its compiled form: every candidate is
	// estimated in full through Estimate/EstimateSet, with no delta, bound
	// or dominance. It is the map-estimate oracle — the search walks the
	// same candidates to the same answer, so results are bit-identical and
	// exhaustive search enumerates the unpruned space — kept for the
	// equivalence tests and benchmarks; no shipped estimator needs it.
	NoCompile bool
	// Replication is the per-unit copy cap OptimizeBest, OptimizeIncremental,
	// OptimizePartitioned and Exhaustive search at (Replication.Cap()); the
	// paper's single-copy procedures — Optimize, OptimizeRelaxing,
	// ExhaustiveRelaxing, ExhaustivePartial and OptimizeValidated — ignore it.
	Replication ReplicationConfig
}

// ReplicationConfig is Input.Replication: how many copies of a unit the
// search may place.
type ReplicationConfig struct {
	// Enabled admits more than one copy per unit; the zero value places one.
	Enabled bool
	// MaxReplicas caps the copies per unit when Enabled. Values below 1 mean
	// no cap (up to one copy per storage class); 1 restricts the search to
	// singleton sets, which is single-copy placement.
	MaxReplicas int
}

// Cap is the copy cap the search entry points search at: one copy per unit
// unless replication is enabled, MaxReplicas (or one per class) otherwise.
func (r ReplicationConfig) Cap() int {
	switch {
	case !r.Enabled:
		return 1
	case r.MaxReplicas < 1 || r.MaxReplicas > device.NumClasses:
		return device.NumClasses
	}
	return r.MaxReplicas
}

// Options controls one optimization run.
type Options struct {
	// RelativeSLA is the performance constraint relative to the starting
	// layout L0 (paper §2.4): 0.5 allows 2x degradation.
	RelativeSLA float64
	// Baseline optionally overrides the estimated L0 metrics when deriving
	// constraints (e.g. to use measured baseline numbers).
	Baseline *workload.Metrics
}

// validateSLA checks the relative SLA bounds shared by every search entry
// point.
func (o Options) validateSLA() error {
	if o.RelativeSLA <= 0 || o.RelativeSLA > 1 {
		return fmt.Errorf("core: relative SLA must be in (0, 1], got %g", o.RelativeSLA)
	}
	return nil
}

// Result reports the recommended layout and its estimated economics.
type Result struct {
	// SetLayout maps every unit to the recommended set of classes holding a
	// copy.
	SetLayout catalog.SetLayout
	// Layout is SetLayout's single-class form; nil when some unit holds more
	// than one copy.
	Layout      catalog.Layout
	Feasible    bool
	TOCCents    float64 // estimated TOC (cents/workload for DSS, cents/task for OLTP)
	Metrics     workload.Metrics
	Constraints workload.Constraints
	Evaluated   int // layouts investigated (memoized revisits included)
	// EstimatorCalls counts the estimator invocations this run actually
	// made: the candidate evaluations that missed the shared engine's memo,
	// plus the baseline (and, for an infeasible ExhaustivePartial, the
	// fallback) evaluations — which is why it can slightly exceed the
	// memo-miss share of Evaluated.
	EstimatorCalls int
	// PlanTime is wall-clock search time: for the DOT entry points the whole
	// call, engine construction and move scoring included; for one round of
	// a relaxing loop or an exhaustive search, from the baseline evaluation
	// on.
	PlanTime time.Duration
	// Search reports the enumeration's statistics — candidates evaluated,
	// subtrees cut by the bound, dominance groups, space sizes. Exhaustive
	// entry points fill every field; the DOT sweeps fill Candidates only.
	Search search.EnumStats
	// best holds the incumbent evaluation; the layouts are materialized from
	// it once at the end of the run (materializing a map per improvement is
	// pure allocation).
	best search.Eval
}

// consider adopts the evaluation when it is feasible and improves on the
// result's incumbent TOC. It reports feasibility.
func (r *Result) consider(ev search.Eval, cons workload.Constraints) bool {
	if !ev.Feasible(cons) {
		return false
	}
	if !r.Feasible || ev.TOCCents < r.TOCCents {
		r.Feasible = true
		r.best = ev
		r.TOCCents = ev.TOCCents
		r.Metrics = ev.Metrics
	}
	return true
}

// MaxCopies returns the largest replica count of any unit — 1 when the
// recommendation degenerates to a single-class layout.
func (r *Result) MaxCopies() int {
	max := 0
	for _, set := range r.SetLayout {
		if c := set.Count(); c > max {
			max = c
		}
	}
	return max
}

// ReplicatedCopies counts the extra copies the recommendation places beyond
// one per unit.
func (r *Result) ReplicatedCopies() int {
	extra := 0
	for _, set := range r.SetLayout {
		if c := set.Count(); c > 1 {
			extra += c - 1
		}
	}
	return extra
}

// finish materializes the recommendation from the incumbent evaluation:
// once, at the end of a search, as private maps.
func (r *Result) finish() *Result {
	r.SetLayout = r.best.Compact.ToSetLayout()
	r.Layout, _ = r.SetLayout.SingleLayout()
	return r
}

// fallBack reports ev's numbers for a search that found nothing feasible.
func (r *Result) fallBack(ev search.Eval) {
	r.best = ev
	r.TOCCents = ev.TOCCents
	r.Metrics = ev.Metrics
}

func (in Input) validate() error {
	if in.Cat == nil || in.Box == nil || in.Est == nil {
		return fmt.Errorf("core: Input requires Cat, Box and Est")
	}
	if len(in.Box.Devices) == 0 {
		return fmt.Errorf("core: box %q has no devices", in.Box.Name)
	}
	return nil
}

func (in Input) conc() int {
	if in.Concurrency < 1 {
		return 1
	}
	return in.Concurrency
}

// tocOf turns a layout's hourly cost and estimated metrics into the TOC
// (paper §2.1/§2.3): C(L) / T cents per task for throughput workloads,
// C(L) * t cents per run otherwise.
func tocOf(perHour float64, m workload.Metrics) float64 {
	if m.Throughput > 0 {
		return perHour / m.Throughput
	}
	return perHour * m.Elapsed.Hours()
}

// cost is the engine's price hook: the TOC under the input's layout cost
// model, priced from the layout's per-class totals, and the capacity
// verdict.
func (in Input) cost(m workload.Metrics, sp catalog.ClassSpace) (float64, bool, error) {
	perHour, fits, err := sp.PriceLinear(in.Box)
	if in.LayoutCost != nil {
		// The custom model prices; the linear pass still decides the fit (a
		// copy on a class the box lacks does not fit).
		perHour, err = in.LayoutCost(sp)
	}
	return tocOf(perHour, m), fits, err
}

// alphabet is the digit alphabet of a search at the given copy cap: every
// set of at most that many of the box's classes. A cap of one is the
// paper's L: O -> D and enumerates the box's classes in the order the box
// declares them (exhaustive ties break toward the earlier digit, so the
// order is part of the search); wider alphabets run in ascending mask
// order.
func (in Input) alphabet(copyCap int) []device.ClassSet {
	if copyCap != 1 {
		return device.EnumerateClassSets(in.Box.Classes(), copyCap)
	}
	digits := make([]device.ClassSet, len(in.Box.Devices))
	for i, d := range in.Box.Devices {
		digits[i] = device.Singleton(d.Class)
	}
	return digits
}

// engine builds the candidate-evaluation engine for this input at a copy
// cap: the single estimate → price → check pipeline every search entry
// point runs through, memoized by layout and fanned out over in.Workers,
// with the estimator in the form searchEstimator picks. Placing more than
// one copy prices only under the linear model and needs an estimator with
// a replica form.
func (in Input) engine(copyCap int) (*search.Engine, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if copyCap > 1 {
		if in.LayoutCost != nil {
			return nil, fmt.Errorf("core: replicated search supports only the linear cost model")
		}
		if _, ok := in.Est.(workload.SetEstimator); !ok {
			return nil, fmt.Errorf("core: estimator %T has no replica form", in.Est)
		}
	}
	return search.New(search.Config{
		Cat:     in.Cat,
		Est:     in.searchEstimator(in.alphabet(copyCap)),
		Price:   in.cost,
		Workers: in.Workers,
		Budget:  in.Budget,
	})
}

// searchEstimator is the estimator the engine searches with: the input
// estimator compiled for exactly the alphabet the search will enumerate
// (workload.CompileEstimator — every shipped estimator compiles, the
// plan-aware DSS estimator for single-copy alphabets), and its map form
// (workload.MapForm) when there is no compiled form — an estimator wrapped
// in another, or one that declines the alphabet — or under NoCompile. The
// choice changes what a candidate costs, never the search.
func (in Input) searchEstimator(alphabet []device.ClassSet) workload.CompactEstimator {
	if !in.NoCompile {
		if ce, ok := workload.CompileEstimator(in.Est, in.Cat, alphabet...).(workload.CompactEstimator); ok {
			return ce
		}
	}
	return workload.MapForm(in.Est)
}

// prep evaluates the starting layout L0 (every object on the most expensive
// class) and derives the constraint set, shared by DOT and exhaustive
// search.
func (in Input) prep(opts Options, eng *search.Engine) (device.Class, search.Eval, workload.Constraints, error) {
	// Input validation already ran when the engine was built (in.engine()
	// is the single gate every entry point passes through).
	var zero search.Eval
	if err := opts.validateSLA(); err != nil {
		return 0, zero, workload.Constraints{}, err
	}
	l0Class := in.Box.MostExpensive().Class
	ev0, err := eng.EvaluateCompact(catalog.CompactUniform(in.Cat, device.Singleton(l0Class)))
	if err != nil {
		return 0, zero, workload.Constraints{}, fmt.Errorf("core: estimating baseline: %w", err)
	}
	baseline := ev0.Metrics
	if opts.Baseline != nil {
		baseline = *opts.Baseline
	}
	cons := workload.Constraints{Relative: opts.RelativeSLA, Baseline: baseline}
	return l0Class, ev0, cons, nil
}

// encode converts a caller-supplied layout (a deployed seed, a pinned base)
// to the compact form the engine searches. A layout that places an object
// the catalog lacks, or places one on something that is not a class set,
// is refused with an error naming the lowest such object: it is no
// candidate, and must never come back in an answer.
func (in Input) encode(what string, l catalog.SetLayout) (catalog.CompactLayout, error) {
	if cl, ok := catalog.CompactFromSetLayout(in.Cat, l); ok {
		return cl, nil
	}
	bad := ^catalog.ObjectID(0) // lowered to the lowest offending ID
	for id, set := range l {
		if (in.Cat.Object(id) == nil || !set.Valid()) && id < bad {
			bad = id
		}
	}
	if in.Cat.Object(bad) == nil {
		return catalog.CompactLayout{}, fmt.Errorf("core: %s layout places object %d, which is not in the catalog", what, bad)
	}
	return catalog.CompactLayout{}, fmt.Errorf("core: %s layout places object %d on %v, which is not a class set", what, bad, l[bad])
}

// setup builds the engine at a copy cap, checks the SLA and scores the move
// list — the preamble of every DOT entry point. The move list depends only
// on the input (never on Options or the SLA), so callers that run several
// sweeps against one engine — OptimizeBest, the relaxing loop — compute it
// once and pass it to every optimizeWith call.
func (in Input) setup(opts Options, copyCap int) (*search.Engine, []Move, error) {
	eng, err := in.engine(copyCap)
	if err != nil {
		return nil, nil, err
	}
	// Fail on a bad SLA before scoring the move list.
	if err := opts.validateSLA(); err != nil {
		return nil, nil, err
	}
	if in.Profiles == nil {
		return nil, nil, fmt.Errorf("core: Optimize requires workload profiles (run the profiling phase)")
	}
	moves, err := EnumerateMoves(in.Cat, in.Box, in.Profiles, in.Box.MostExpensive().Class, in.conc(), eng.Workers())
	if err != nil {
		return nil, nil, err
	}
	return eng, moves, nil
}

// Optimize is Procedure 1, the DOT heuristic: start from L0 (every object
// on the most expensive class), apply the scored moves in order, keep every
// feasible layout, and return the one with the minimum estimated TOC.
func Optimize(in Input, opts Options) (*Result, error) {
	start := time.Now()
	eng, moves, err := in.setup(opts, 1)
	if err != nil {
		return nil, err
	}
	res, err := optimizeWith(in, opts, eng, moves, nil, guarded)
	if err != nil {
		return nil, err
	}
	res.PlanTime = time.Since(start)
	return res.finish(), nil
}

// sweepPasses bounds a cold DOT search's sweeps over the move list.
// Procedure 1 in the paper is a single sweep; a second sweep lets a group's
// placement be revisited after the rest of the layout has settled, which
// closes most of the gap to exhaustive search. Sweeps stop early at a fixed
// point.
const sweepPasses = 2

// policy is how a DOT sweep walks: guarded walks on only to candidates that
// do not worsen the running TOC; greedy is the paper's literal Procedure 1,
// which walks to every feasible candidate even when that worsens the
// running layout (L* still tracks the best prefix).
type policy bool

const (
	guarded policy = false
	greedy  policy = true
)

// optimizeWith is one DOT pass under a policy against a caller-supplied
// engine and move list, so OptimizeBest's two sweeps and OptimizeRelaxing's
// SLA halvings share one memo table and one scored move list instead of
// recomputing both: the L0 baseline, the uniform single-copy anchors, the
// move sweep, and — when trans is non-nil, i.e. the copy cap admits
// replication — the add/drop/swap refinement from the sweep's incumbent.
// The result carries its incumbent evaluation; callers materialize the
// layout of the one they keep (Result.finish).
func optimizeWith(in Input, opts Options, eng *search.Engine, moves []Move, trans [][]device.ClassSet, pol policy) (*Result, error) {
	start := time.Now()
	stats0 := eng.Stats()
	l0Class, ev0, cons, err := in.prep(opts, eng)
	if err != nil {
		return nil, err
	}

	res := &Result{Constraints: cons, Evaluated: 1}
	// L0 is the first candidate (it may violate capacity).
	res.consider(ev0, cons)

	// Seed the candidates with the uniform ("All <class>") layouts. They
	// cost M extra evaluations and anchor the search under cost models with
	// consolidation discounts (the discrete-sized model of §5.2 prices any
	// second storage class at a whole device).
	for _, d := range in.Box.SortedByPrice() {
		if d.Class == l0Class {
			continue
		}
		ev, err := eng.EvaluateCompact(catalog.CompactUniform(in.Cat, device.Singleton(d.Class)))
		if err != nil {
			return nil, err
		}
		res.Evaluated++
		res.consider(ev, cons)
	}

	if err := dotSweep(eng.NewCursor(ev0), moves, cons, res, sweepPasses, pol, nil); err != nil {
		return nil, err
	}
	if trans != nil {
		from := ev0
		if res.Feasible {
			from = res.best
		}
		if err := refineSweep(eng.NewCursor(from), in.Cat.Objects(), trans, cons, res, sweepPasses, nil); err != nil {
			return nil, err
		}
	}
	if !res.Feasible {
		// No feasible layout found: report L0's numbers so the caller can
		// decide how to relax the constraints (paper §3: "the performance
		// constraints must be relaxed in order to compute a layout").
		res.fallBack(ev0)
	}
	res.EstimatorCalls = eng.Stats().Sub(stats0).EstimatorCalls
	res.PlanTime = time.Since(start)
	res.Search.Candidates = res.Evaluated
	return res, nil
}

// gateFunc vets a candidate before a sweep may adopt or walk to it, on top
// of capacity and the SLA (see IncrementalOptions.Accept).
type gateFunc func(ev search.Eval, cons workload.Constraints) bool

// dotSweep is Procedure 1's move sweep: walk the scored moves in order,
// place each move's group on its pattern's classes (one copy each), keep
// every feasible candidate in res, and walk on to it as the policy allows.
// A non-nil gate vets candidates before they can be adopted or walked to
// (the incremental search's migration budget plugs in here); the cold
// sweeps pass nil.
func dotSweep(cur *search.Cursor, moves []Move, cons workload.Constraints, res *Result, passes int, pol policy, gate gateFunc) error {
	curTOC := cur.Eval().TOCCents
	curFeasible := cur.Eval().Feasible(cons)
	var changes []workload.ObjectMove
	for pass := 0; pass < passes; pass++ {
		changed := false
		for _, m := range moves {
			changes = changes[:0]
			for i, obj := range m.Group.Objects {
				from, _ := cur.At(obj)
				if to := device.Singleton(m.Placement[i]); from != to {
					changes = append(changes, workload.ObjectMove{Obj: obj, From: from, To: to})
				}
			}
			if len(changes) == 0 {
				continue // identity move
			}
			ev, err := cur.Try(changes)
			if err != nil {
				return err
			}
			res.Evaluated++
			accepted := (gate == nil || gate(ev, cons)) && res.consider(ev, cons)
			// Guard: only walk to layouts that do not worsen the running
			// TOC (unless reproducing the literal Procedure 1). Infeasible
			// starting points (L0 over capacity) always accept the first
			// feasible layout.
			if !accepted || (pol == guarded && curFeasible && ev.TOCCents > curTOC) {
				cur.Revert(changes)
				continue
			}
			cur.Commit(ev)
			curTOC = ev.TOCCents
			curFeasible = true
			changed = true
		}
		if !changed {
			break
		}
	}
	return nil
}

// replicaTransitions precomputes, per current class set, the candidate
// target sets of the refinement sweep's three move kinds — add one copy,
// drop one copy, swap one copy for another class — restricted to the box's
// classes and the per-unit copy cap, in ascending mask order (deterministic
// sweep order). A cap of one admits no second copy and returns nil: the
// search is then the single-copy search and skips the refinement.
func (in Input) replicaTransitions(copyCap int) [][]device.ClassSet {
	if copyCap < 2 {
		return nil
	}
	digits := in.alphabet(copyCap)
	out := make([][]device.ClassSet, device.NumClassSets)
	for _, cur := range in.alphabet(device.NumClasses) {
		for _, tgt := range digits {
			switch (cur ^ tgt).Count() {
			case 1:
				// add (tgt ⊃ cur) or drop (tgt ⊂ cur) one copy
			case 2:
				if tgt.Count() != cur.Count() {
					continue // two-step change, reachable via add+drop
				}
				// swap one member for another
			default:
				continue
			}
			out[cur] = append(out[cur], tgt)
		}
	}
	return out
}

// refineSweep is the copy refinement: for every unit in catalog order, try
// each add/drop/swap transition of its current set, adopt TOC improvements
// (strictly: an equal-TOC change is not worth a copy), and repeat per unit
// until no transition helps. The gate vets candidates exactly as in
// dotSweep.
func refineSweep(cur *search.Cursor, objs []*catalog.Object, trans [][]device.ClassSet, cons workload.Constraints, res *Result, passes int, gate gateFunc) error {
	curTOC := cur.Eval().TOCCents
	curFeasible := cur.Eval().Feasible(cons)
	var move [1]workload.ObjectMove
	for pass := 0; pass < passes; pass++ {
		changed := false
		for _, o := range objs {
			from, placed := cur.At(o.ID)
			if !placed {
				continue
			}
			// Chase improvements on this unit to a local fixed point; each
			// adoption changes the transition list, so re-resolve it. The step
			// bound caps pathological equal-TOC cycles.
			for step := 0; step < device.NumClassSets; step++ {
				improved := false
				for _, tgt := range trans[from] {
					move[0] = workload.ObjectMove{Obj: o.ID, From: from, To: tgt}
					ev, err := cur.Try(move[:])
					if err != nil {
						return err
					}
					res.Evaluated++
					accepted := (gate == nil || gate(ev, cons)) && res.consider(ev, cons)
					if !accepted || (curFeasible && ev.TOCCents >= curTOC) {
						cur.Revert(move[:])
						continue
					}
					cur.Commit(ev)
					curTOC, curFeasible = ev.TOCCents, true
					from = tgt
					improved, changed = true, true
					break
				}
				if !improved {
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// OptimizeBest is the cold DOT search at the input's copy cap: both
// application policies of the DOT pass — the guarded sweep and the paper's
// literal greedy sweep — and the feasible result with the lower estimated
// TOC. The two are complementary: the guard wins when the greedy walk would
// clobber good placements; the greedy walk wins when the cost model has
// valleys a monotonic walk cannot cross (e.g. the discrete-sized model of
// §5.2, where using a second storage class temporarily raises cost until
// the first one empties). Above a cap of one, extra copies enter through
// the refinement sweep's add/drop/swap moves: a scan-friendly copy on cheap
// sequential storage plus a point-lookup copy on fast random storage, each
// query routed to its best copy, every write charged to all copies, storage
// summed over members.
//
// Both passes share one search engine, so the second revisits the first's
// memoized evaluations instead of re-estimating them; with Workers > 1 the
// passes also run concurrently (the engine's semaphore still bounds
// concurrent estimator calls at Workers). Evaluated reports the summed work
// of both passes, EstimatorCalls the distinct layouts actually estimated,
// and PlanTime the wall clock of this whole call — not the sum of two passes
// that may have overlapped.
func OptimizeBest(in Input, opts Options) (*Result, error) {
	start := time.Now()
	copyCap := in.Replication.Cap()
	eng, moves, err := in.setup(opts, copyCap)
	if err != nil {
		return nil, err
	}
	trans := in.replicaTransitions(copyCap)
	var (
		a, b       *Result
		errA, errB error
	)
	if eng.Workers() > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, errB = optimizeWith(in, opts, eng, moves, trans, greedy)
		}()
		a, errA = optimizeWith(in, opts, eng, moves, trans, guarded)
		wg.Wait()
	} else {
		a, errA = optimizeWith(in, opts, eng, moves, trans, guarded)
		if errA == nil {
			b, errB = optimizeWith(in, opts, eng, moves, trans, greedy)
		}
	}
	if errA != nil {
		return nil, errA
	}
	if errB != nil {
		return nil, errB
	}
	best := a
	if b.Feasible && (!a.Feasible || b.TOCCents < a.TOCCents) {
		best = b
	}
	best.Evaluated = a.Evaluated + b.Evaluated
	best.EstimatorCalls = eng.Stats().EstimatorCalls
	best.Search.Candidates = best.Evaluated
	best.PlanTime = time.Since(start)
	return best.finish(), nil
}

// ReplicaResult is the result type of the OptimizeReplicated forward.
type ReplicaResult struct{ *Result }

// OptimizeReplicated forwards to OptimizeBest; it stays because the
// end-to-end benchmark harness (benchmarks/e2e) names it.
func OptimizeReplicated(in Input, opts Options) (*ReplicaResult, error) {
	res, err := OptimizeBest(in, opts)
	if err != nil {
		return nil, err
	}
	return &ReplicaResult{res}, nil
}

// minSLAFloor guards the relaxing loops against a non-positive minSLA,
// which could otherwise halve forever without ever clamping.
const minSLAFloor = 1e-9

// relaxing is the shared SLA-halving loop of §4.5.3: run the search,
// halve the relative SLA while infeasible, clamp at minSLA, and stop at the
// first feasible result (or at the clamp).
func relaxing(opts Options, minSLA float64, run func(Options) (*Result, error)) (*Result, float64, error) {
	if minSLA < minSLAFloor {
		minSLA = minSLAFloor
	}
	sla := opts.RelativeSLA
	for {
		o := opts
		o.RelativeSLA = sla
		res, err := run(o)
		if err != nil {
			return nil, 0, err
		}
		if res.Feasible || sla <= minSLA {
			return res, sla, nil
		}
		sla /= 2
		if sla < minSLA {
			sla = minSLA
		}
	}
}

// OptimizeRelaxing runs Optimize, halving the relative SLA until a feasible
// layout appears (the paper's loop in §4.5.3: "we slightly relax the
// relative SLA and repeat the optimization"). It returns the result and the
// final SLA value. All rounds share one search engine: a layout estimated
// at one SLA level is only re-checked, never re-estimated, at the next.
func OptimizeRelaxing(in Input, opts Options, minSLA float64) (*Result, float64, error) {
	eng, moves, err := in.setup(opts, 1)
	if err != nil {
		return nil, 0, err
	}
	return relaxing(opts, minSLA, func(o Options) (*Result, error) {
		res, err := optimizeWith(in, o, eng, moves, nil, guarded)
		if err != nil {
			return nil, err
		}
		return res.finish(), nil
	})
}
