package core

import (
	"fmt"
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
	// Moves optionally shares scored move lists with other searches over
	// the same catalog and profile set (provision.SweepConfigurations shares
	// one between its candidates); nil scores the list for this search
	// alone. Results are identical either way. Partitioned and
	// OptimizeValidated's refinement rounds, which score over another
	// catalog or profile set, drop it.
	Moves *MoveLists
	// NoCompile hands the search the estimator's map form
	// (workload.MapForm) instead of its compiled form: every candidate is
	// estimated in full through Estimate/EstimateSet, with no delta, bound
	// or dominance. It is the map-estimate oracle — the search walks the
	// same candidates to the same answer, so results are bit-identical and
	// exhaustive search enumerates the unpruned space — kept for the
	// equivalence tests and benchmarks; no shipped estimator needs it.
	NoCompile bool
	// Replication is the per-unit copy cap OptimizeBest, OptimizeIncremental
	// and Exhaustive search at (Replication.Cap()), over an object or a
	// Partitioned input alike; the paper's single-copy procedures —
	// Optimize, OptimizeRelaxing, ExhaustivePartial and OptimizeValidated —
	// ignore it.
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
	// PlanTime is the wall clock of the whole call for every DOT entry point
	// — engine construction, move scoring and, for OptimizeRelaxing, every
	// round included. An exhaustive search's clock starts once its engine is
	// built.
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

// MaxCopies returns the recommendation's catalog.SetLayout.MaxCopies — 1
// when it degenerates to a single-class layout.
func (r *Result) MaxCopies() int { return r.SetLayout.MaxCopies() }

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
// once, at the end of a search, as private maps. It then drops the
// incumbent, whose layout bytes are the engine's memo storage: the entry
// points release their engine as they return, and a kept Result —
// memoized by the fleet, held by a deployed decision — must not pin (or
// read) storage the next search reuses.
func (r *Result) finish() *Result {
	r.SetLayout = r.best.Compact.ToSetLayout()
	r.Layout, _ = r.SetLayout.SingleLayout()
	r.best = search.Eval{}
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
	return workload.TOC(perHour, m), fits, err
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

// dot is the one frame every DOT entry point runs in: build the engine at a
// copy cap, check the SLA, score the move list, run the search body on
// them, and finish the body's result, with PlanTime the wall clock of the
// whole call. The move list depends only on the input (never on Options or
// the SLA), so a body that runs several passes on the engine —
// OptimizeBest's two policies, the relaxing loop's SLA levels — scores it
// once and shares one memo table.
func (in Input) dot(opts Options, copyCap int, body func(eng *search.Engine, moves []Move) (*Result, error)) (*Result, error) {
	start := time.Now()
	eng, err := in.engine(copyCap)
	if err != nil {
		return nil, err
	}
	// Deferred, so it runs after finish has materialized the layout.
	defer eng.Release()
	// Fail on a bad SLA before scoring the move list.
	if err := opts.validateSLA(); err != nil {
		return nil, err
	}
	if in.Profiles == nil {
		return nil, fmt.Errorf("core: Optimize requires workload profiles (run the profiling phase)")
	}
	moves, err := in.Moves.get(in, eng.Workers())
	if err != nil {
		return nil, err
	}
	res, err := body(eng, moves)
	if err != nil {
		return nil, err
	}
	res.Search.Candidates = res.Evaluated
	res.PlanTime = time.Since(start)
	return res.finish(), nil
}

// Optimize is Procedure 1, the DOT heuristic: start from L0 (every object
// on the most expensive class), apply the scored moves in order, keep every
// feasible layout, and return the one with the minimum estimated TOC.
func Optimize(in Input, opts Options) (*Result, error) {
	return in.dot(opts, 1, func(eng *search.Engine, moves []Move) (*Result, error) {
		return in.pass(IncrementalOptions{Options: opts}, eng, moves, nil, guarded)
	})
}

// sweepPasses bounds a cold DOT search's sweeps over the move list.
// Procedure 1 in the paper is a single sweep; a second sweep lets a group's
// placement be revisited after the rest of the layout has settled, which
// closes most of the gap to exhaustive search. Sweeps stop early at a fixed
// point.
const sweepPasses = 2

// policy is a sweep's walk rule from a feasible cursor: guarded walks on
// only to candidates that do not worsen the running TOC; greedy is the
// paper's literal Procedure 1, which walks to every feasible candidate even
// when that worsens the running layout (L* still tracks the best prefix);
// improving, the copy refinement's rule, walks on only to a strictly lower
// TOC (an equal-TOC change is not worth a copy).
type policy uint8

const (
	guarded policy = iota
	greedy
	improving
)

// pass is one DOT pass on a caller-supplied engine and move list, so
// OptimizeBest's two policies and OptimizeRelaxing's SLA levels share one
// memo table and one scored move list. It evaluates L0 and derives the
// constraints, then starts where the pass does: a cold pass (no Seed) at
// L0, offering the uniform single-copy anchors too, an incremental pass at
// the deployed seed, offering candidates only past opts.Accept. It runs the
// move sweep from the start and — when trans is non-nil, i.e. the copy cap
// admits a second copy — the copy refinement from the incumbent (from the
// start when nothing is feasible yet); a cold pass sweeps each list up to
// sweepPasses times, an incremental one once. With nothing feasible the
// result reports the start's numbers, so the caller can decide how to relax
// the constraints (paper §3: "the performance constraints must be relaxed
// in order to compute a layout"). EstimatorCalls counts this pass's memo
// misses; the result carries its incumbent evaluation, which the frame
// materializes (Result.finish).
func (in Input) pass(opts IncrementalOptions, eng *search.Engine, moves []Move, trans [][]device.ClassSet, pol policy) (*Result, error) {
	stats0 := eng.Stats()
	l0, from, cons, err := in.prep(opts.Options, eng)
	if err != nil {
		return nil, err
	}
	res := &Result{Constraints: cons, Evaluated: 1}
	cold, passes := len(opts.Seed) == 0, sweepPasses
	if !cold {
		seed, err := in.encode("seed", opts.Seed)
		if err != nil {
			return nil, err
		}
		if from, err = eng.EvaluateCompact(seed); err != nil {
			return nil, fmt.Errorf("core: estimating seed layout: %w", err)
		}
		// L0 is a constraint anchor only, never an incremental candidate
		// (adopting it would be a full-database migration); staying put
		// moves zero bytes, so the seed bypasses the gate.
		res.Evaluated++
		passes = 1
	}
	// The start is the first candidate. consider adopts only a feasible
	// layout, so an L0 over capacity is never the answer; the sweep still
	// starts there.
	res.consider(from, cons)
	// A cold pass seeds the candidates with the uniform ("All <class>")
	// layouts. They cost M extra evaluations and anchor the search under
	// cost models with consolidation discounts (the discrete-sized model of
	// §5.2 prices any second storage class at a whole device).
	for _, d := range in.Box.SortedByPrice() {
		if !cold || d.Class == l0 {
			continue
		}
		ev, err := eng.EvaluateCompact(catalog.CompactUniform(in.Cat, device.Singleton(d.Class)))
		if err != nil {
			return nil, err
		}
		res.Evaluated++
		res.consider(ev, cons)
	}

	w := walk{res: res, pol: pol, gate: opts.Accept, escape: cold}
	if err := w.sweep(eng, from, passes, func() (bool, error) { return w.moves(moves) }); err != nil {
		return nil, err
	}
	if trans != nil {
		at := from
		if res.Feasible {
			at = res.best
		}
		w.pol, w.escape = improving, false
		if err := w.sweep(eng, at, passes, func() (bool, error) { return w.refine(in.Cat.Objects(), trans) }); err != nil {
			return nil, err
		}
	}
	if !res.Feasible {
		res.fallBack(from)
	}
	res.EstimatorCalls = eng.Stats().Sub(stats0).EstimatorCalls
	return res, nil
}

// walk is a sweep's cursor and its walk rule. Both candidate generators —
// the move sweep and the copy refinement — offer every candidate through
// try, so when the cursor moves on is decided in one place.
type walk struct {
	cur *search.Cursor
	res *Result
	pol policy
	// gate is IncrementalOptions.Accept; nil admits every candidate.
	gate func(search.Eval, workload.Constraints) bool
	// escape marks the cold move sweep, which walks on from a cursor over
	// capacity.
	escape bool
	// feasible is whether the cursor's layout is feasible.
	feasible bool
	changes  []workload.ObjectMove
}

// sweep starts the cursor at an evaluated layout and runs a generator's
// passes over it, at most passes of them, stopping early at a fixed point
// (a pass that never moved the cursor).
func (w *walk) sweep(eng *search.Engine, start search.Eval, passes int, pass func() (bool, error)) error {
	w.cur, w.feasible = eng.NewCursor(start), start.Feasible(w.res.Constraints)
	for i := 0; i < passes; i++ {
		moved, err := pass()
		if err != nil || !moved {
			return err
		}
	}
	return nil
}

// try evaluates the cursor's layout with the changes applied, offers it to
// the result — which adopts it when it passes the gate, is feasible and
// improves the incumbent — and walks on to it when the rule allows,
// reverting the changes otherwise. It reports whether the cursor moved.
func (w *walk) try(changes []workload.ObjectMove) (bool, error) {
	ev, err := w.cur.Try(changes)
	if err != nil {
		return false, err
	}
	w.res.Evaluated++
	cons := w.res.Constraints
	accepted := (w.gate == nil || w.gate(ev, cons)) && w.res.consider(ev, cons)
	if !w.walks(ev, accepted) {
		w.cur.Revert(changes)
		return false, nil
	}
	w.cur.Commit(ev)
	w.feasible = accepted
	return true, nil
}

// walks is the one walk rule. The cold move sweep walks on from a cursor
// over capacity — L0, when the database overflows the top class — to a
// candidate that does not fit either, so it can cross layouts that do not
// fit to reach one that does: a walk that takes only feasible steps leaves
// such a start only when a layout one move away is feasible. It does not
// walk on to a fitting candidate that misses the SLA, which can strand the
// cursor on a layout with no feasible neighbour. Otherwise the cursor
// moves only to a candidate the result accepted: from an infeasible cursor
// any such candidate is a step forward, and from a feasible one the policy
// decides.
func (w *walk) walks(ev search.Eval, accepted bool) bool {
	switch {
	case w.escape && !ev.CapacityOK && !w.cur.Eval().CapacityOK:
		return true // still over capacity: cross it
	case !accepted:
		return false
	case !w.feasible || w.pol == greedy:
		return true
	case w.pol == guarded:
		return ev.TOCCents <= w.cur.Eval().TOCCents
	default: // improving
		return ev.TOCCents < w.cur.Eval().TOCCents
	}
}

// moves is one pass of Procedure 1's move sweep: in score order, place each
// move's group on its pattern's classes (one copy each).
func (w *walk) moves(moves []Move) (bool, error) {
	moved := false
	for _, m := range moves {
		w.changes = w.changes[:0]
		for i, obj := range m.Group.Objects {
			from, _ := w.cur.At(obj)
			if to := device.Singleton(m.Placement[i]); from != to {
				w.changes = append(w.changes, workload.ObjectMove{Obj: obj, From: from, To: to})
			}
		}
		if len(w.changes) == 0 {
			continue // identity move
		}
		ok, err := w.try(w.changes)
		if err != nil {
			return false, err
		}
		moved = moved || ok
	}
	return moved, nil
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

// refine is one pass of the copy refinement: for every unit in catalog
// order, try each add/drop/swap transition of its current set and, per
// unit, chase the transitions the walk takes to a fixed point.
func (w *walk) refine(objs []*catalog.Object, trans [][]device.ClassSet) (bool, error) {
	moved := false
	for _, o := range objs {
		from, placed := w.cur.At(o.ID)
		// Each step changes the transition list, so re-resolve it. The step
		// bound caps pathological equal-TOC cycles.
	chase:
		for step := 0; placed && step < device.NumClassSets; step++ {
			for _, tgt := range trans[from] {
				w.changes = append(w.changes[:0], workload.ObjectMove{Obj: o.ID, From: from, To: tgt})
				ok, err := w.try(w.changes)
				if err != nil {
					return false, err
				}
				if ok {
					from, moved = tgt, true
					continue chase
				}
			}
			break
		}
	}
	return moved, nil
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
// passes also run concurrently (the engine's worker budget still bounds
// concurrent estimator calls at Workers). Evaluated reports the summed work
// of both passes and EstimatorCalls the distinct layouts actually
// estimated.
func OptimizeBest(in Input, opts Options) (*Result, error) {
	copyCap := in.Replication.Cap()
	return in.dot(opts, copyCap, func(eng *search.Engine, moves []Move) (*Result, error) {
		trans := in.replicaTransitions(copyCap)
		pols := [2]policy{guarded, greedy}
		var runs [2]*Result
		if err := search.Parallel(eng.Workers(), len(pols), func(i int) (err error) {
			runs[i], err = in.pass(IncrementalOptions{Options: opts}, eng, moves, trans, pols[i])
			return err
		}); err != nil {
			return nil, err
		}
		a, b := runs[0], runs[1]
		best := a
		if b.Feasible && (!a.Feasible || b.TOCCents < a.TOCCents) {
			best = b
		}
		best.Evaluated = a.Evaluated + b.Evaluated
		best.EstimatorCalls = eng.Stats().EstimatorCalls
		return best, nil
	})
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

// minSLAFloor guards the relaxing loop against a non-positive minSLA,
// which could otherwise halve forever without ever clamping.
const minSLAFloor = 1e-9

// OptimizeRelaxing runs Optimize, halving the relative SLA until a feasible
// layout appears (the paper's loop in §4.5.3: "we slightly relax the
// relative SLA and repeat the optimization"). It returns the final round's
// result and SLA value. All rounds share one search engine: a layout
// estimated at one SLA level is only re-checked, never re-estimated, at the
// next.
func OptimizeRelaxing(in Input, opts Options, minSLA float64) (*Result, float64, error) {
	minSLA = max(minSLA, minSLAFloor)
	sla := opts.RelativeSLA
	res, err := in.dot(opts, 1, func(eng *search.Engine, moves []Move) (*Result, error) {
		for {
			o := opts
			o.RelativeSLA = sla
			res, err := in.pass(IncrementalOptions{Options: o}, eng, moves, nil, guarded)
			if err != nil || res.Feasible || sla <= minSLA {
				return res, err
			}
			sla = max(sla/2, minSLA)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return res, sla, nil
}
