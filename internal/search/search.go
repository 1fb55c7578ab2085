// Package search is the shared layout-search engine behind DOT, exhaustive
// search and the SLA-relaxing wrappers (paper §3, §4.4.3, §4.5.3). All of
// them reduce to the same inner loop — estimate a candidate layout, price
// it (cost and capacity fit), check the SLA — which this package implements
// once, with
//
//   - a memo table keyed by the canonical layout encoding (the raw bytes of
//     a catalog.CompactLayout on the compiled path — chained per 64-bit
//     position-keyed XOR hash and resolved by comparing the bytes —
//     catalog.SetLayout.Key on the map path), so repeated sweeps
//     (OptimizeBest's two policies, SLA halving) never estimate the same
//     layout twice. It is the only memo there is: an evaluation holds for
//     one box and one cost model, so searches over different boxes (a
//     provisioning sweep's candidates) share an estimator and a Budget,
//     never evaluations;
//   - a bounded worker pool that fans independent candidate evaluations out
//     across goroutines (estimators must be safe for concurrent use — see
//     the workload.Estimator contract);
//   - two exhaustive walks: the map enumeration (Exhaustive), which visits
//     every layout, and the compiled branch-and-bound DFS (ExhaustiveBnB),
//     whose admissible floor and dominance collapse skip only candidates
//     that provably cannot change the result (an estimator offering neither
//     — the plan-aware DSS estimator — gets the same walk unpruned); and
//   - an optional compiled evaluation path (Config.Compiled): compact
//     layouts, dense per-(object, class-set) cost tables, and a Cursor that
//     derives a candidate's memo hash, estimate and per-class totals from
//     its predecessor's in O(moves) make the per-candidate hot path
//     allocation-free while returning bit-identical results.
//
// A candidate places every unit on a set of storage classes
// (catalog.SetLayout, densely catalog.CompactLayout); a single-copy layout
// is the all-singleton case and takes the same path. The engine hashes,
// clones and delta-chains placement bytes without interpreting them — only
// the estimator and catalog.ClassSpace, which totals them per class for the
// cost hook, know what a byte means.
//
// Results are deterministic regardless of worker count: candidates carry
// their enumeration index, and ties on TOC resolve to the lowest index,
// which reproduces the sequential first-found-wins rule exactly.
package search

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"dotprov/internal/catalog"
	"dotprov/internal/workload"
)

// CompiledConfig enables the engine's compiled evaluation path: candidates
// are compact layouts (dense class-set bytes), the memo is keyed by their raw
// byte strings, and metrics come from a CompactEstimator — with O(moves)
// delta re-estimation (through a Cursor) when the estimator supports it.
// The compiled hook must price and capacity-check exactly like its map-path
// sibling in Config; results are bit-identical either way, the compiled
// path just stops allocating per candidate.
type CompiledConfig struct {
	// Cat anchors dense object indexing for map <-> compact conversion; its
	// object sizes, snapshotted when the engine is built, are what a
	// layout's per-class totals sum.
	Cat *catalog.Catalog
	// Est evaluates compact layouts. Required.
	Est workload.CompactEstimator
	// Delta optionally re-estimates single/grouped object moves in O(moves)
	// from a base evaluation. Nil falls back to full compact estimation.
	Delta workload.DeltaEstimator
	// Price is Config.Price over the layout's per-class totals — all a
	// price or a capacity verdict may depend on, which is what lets a Cursor
	// price a candidate without walking it. Required; must agree with
	// Config.Price bit for bit.
	Price func(m workload.Metrics, sp catalog.ClassSpace) (toc float64, fits bool, err error)
}

// Config assembles an Engine. Est and Price are required.
type Config struct {
	// Est predicts workload metrics for a candidate layout (through
	// workload.EstimateSet: an estimator without a replica form sees the
	// single-class view and cannot be asked about multi-copy layouts). It is
	// called at most once per distinct layout; when Workers > 1 it must be
	// safe for concurrent use.
	Est workload.Estimator
	// Price prices the estimated metrics under the layout (the TOC model)
	// and reports whether the layout fits the box — one hook, because both
	// answers read the same per-class byte totals and the walk that produces
	// them dominates a candidate's cost on wide catalogs.
	Price func(m workload.Metrics, l catalog.SetLayout) (toc float64, fits bool, err error)
	// Workers bounds the evaluation fan-out. Values below 2 select the
	// sequential path (no goroutines, no concurrent estimator use).
	Workers int
	// Budget optionally shares one worker budget across engines: when set it
	// overrides Workers, and concurrent estimator invocations across every
	// engine built on the same Budget are bounded at its width. Provisioning
	// sweeps use this so N candidate searches in flight cannot oversubscribe
	// the machine N-fold.
	Budget *Budget
	// MemoLimit bounds the number of memo entries the engine retains, so a
	// near-bound exhaustive enumeration (up to millions of distinct
	// layouts, each entry holding a layout clone and metrics) cannot
	// exhaust memory. Once full, further distinct layouts are evaluated
	// without caching — results are unchanged, revisits just pay the
	// estimator again. 0 selects DefaultMemoLimit; negative means
	// unlimited.
	MemoLimit int
	// Compiled optionally enables the allocation-free compact evaluation
	// path. See CompiledConfig.
	Compiled *CompiledConfig
}

// DefaultMemoLimit caps the memo at 2^18 entries — enough to fully cache a
// 3^11 exhaustive space or any realistic DOT sweep, while bounding worst-
// case retention to a few hundred MB.
const DefaultMemoLimit = 1 << 18

// Eval is one candidate's constraint-free evaluation: everything about the
// layout that does not depend on the SLA. Feasibility against a concrete
// constraint set is checked per use (Feasible), so a memoized Eval stays
// valid across OptimizeBest's sweeps and the relaxing loops' SLA halvings.
type Eval struct {
	// Layout is the map form of the evaluated layout. On the compiled path
	// it is nil — the layout lives in Compact — so callers that need the map
	// form use LayoutMap/LayoutClone.
	Layout catalog.SetLayout
	// Compact is the dense form; set on the compiled path only.
	Compact    catalog.CompactLayout
	Metrics    workload.Metrics
	TOCCents   float64
	CapacityOK bool
	// state is the estimator's delta snapshot (compiled path, delta-capable
	// estimators only); a Cursor derives moved layouts from it.
	state workload.DeltaState
}

// Feasible reports whether the evaluated layout fits the box and meets the
// performance constraints.
func (e Eval) Feasible(cons workload.Constraints) bool {
	return e.CapacityOK && cons.Satisfied(e.Metrics)
}

// LayoutMap returns the evaluated layout in map form, materializing it from
// the compact form on the compiled path. The map-path result aliases the
// memoized layout and must not be mutated; use LayoutClone for a private
// copy.
func (e Eval) LayoutMap() catalog.SetLayout {
	if e.Layout != nil {
		return e.Layout
	}
	if !e.Compact.IsZero() {
		return e.Compact.ToSetLayout()
	}
	return nil
}

// LayoutClone returns a private map-form copy of the evaluated layout.
func (e Eval) LayoutClone() catalog.SetLayout {
	if e.Layout != nil {
		return e.Layout.Clone()
	}
	if !e.Compact.IsZero() {
		return e.Compact.ToSetLayout()
	}
	return nil
}

// Stats summarises an engine's work so far.
type Stats struct {
	// Evaluated counts Evaluate requests (memo hits included): the
	// "layouts investigated" number the paper reports.
	Evaluated int
	// EstimatorCalls counts actual estimator invocations (memo misses).
	EstimatorCalls int
}

// MemoHits is the number of evaluations answered from the memo table.
func (s Stats) MemoHits() int { return s.Evaluated - s.EstimatorCalls }

// Sub returns the work done since an earlier snapshot.
func (s Stats) Sub(o Stats) Stats {
	return Stats{Evaluated: s.Evaluated - o.Evaluated, EstimatorCalls: s.EstimatorCalls - o.EstimatorCalls}
}

type entry struct {
	once sync.Once
	// done mirrors once's completion so memo hits can return without
	// building the once.Do closure (a per-call allocation on the hot path).
	done atomic.Bool
	// cl is the stable (engine-owned) compact layout of the entry, set at
	// insert time on the compiled path so whichever goroutine runs the
	// measurement works from engine-owned bytes, never a caller's scratch.
	// It doubles as the memo key: the compact memo chains entries per
	// 64-bit hash and resolves collisions by comparing these bytes, so no
	// key string is ever materialized on the hot path.
	cl   catalog.CompactLayout
	next *entry // hash-chain sibling in the compact memo
	ev   Eval
	err  error
}

// Engine evaluates candidate layouts through the memoized
// estimate → price → check pipeline. An Engine is safe for concurrent use;
// share one across sweeps to share its memo table. Layouts passed to an
// Engine are retained in the memo and must not be mutated afterwards.
type Engine struct {
	cfg  Config
	mu   sync.Mutex
	memo map[string]*entry
	// memoC is the compiled path's memo: entries chained per layoutHash of
	// the compact layout bytes (masked by hashMask), resolved by byte
	// comparison — probing and inserting never build a key string, and a
	// Cursor supplies the hash without reading the bytes. memoCount tracks
	// retained entries across both memos for the MemoLimit.
	memoC     map[uint64]*entry
	memoCount int
	// hashMask is all ones. Tests zero it so that every layout lands on one
	// chain: the memo's answers rest on the byte comparison, not the hash.
	hashMask uint64
	// sizes is the catalog's dense size table (compiled engines), frozen per
	// engine like the estimators' statistics.
	sizes []int64
	// Memo-insert arenas (guarded by mu): distinct candidates are the hot
	// allocation site of an exhaustive run, so entries and compact-layout
	// clones are carved from chunks instead of allocated one by one.
	entArena  []entry
	byteArena []byte
	// sem bounds concurrent estimator invocations at Workers across ALL
	// concurrent operations on the engine — concurrent sweeps sharing one
	// engine (OptimizeBest) cannot oversubscribe past the configured width.
	sem       chan struct{}
	evaluated atomic.Int64
	estCalls  atomic.Int64
}

// New builds an engine. It returns an error when the config lacks the
// estimator or the cost model, or when the compiled config is incomplete.
func New(cfg Config) (*Engine, error) {
	if cfg.Est == nil || cfg.Price == nil {
		return nil, fmt.Errorf("search: Config requires Est and Price")
	}
	if cc := cfg.Compiled; cc != nil && (cc.Cat == nil || cc.Est == nil || cc.Price == nil) {
		return nil, fmt.Errorf("search: CompiledConfig requires Cat, Est and Price")
	}
	e := &Engine{cfg: cfg, memo: make(map[string]*entry), hashMask: ^uint64(0)}
	if cfg.Compiled != nil {
		e.memoC = make(map[uint64]*entry)
		e.sizes = cfg.Compiled.Cat.DenseSizeBytes()
	}
	if cfg.Budget != nil {
		e.sem = cfg.Budget.sem
	} else if w := e.Workers(); w > 1 {
		e.sem = make(chan struct{}, w)
	}
	return e, nil
}

// Compiled reports whether the engine evaluates through the compiled
// (compact/delta) path.
func (e *Engine) Compiled() bool { return e.cfg.Compiled != nil }

// CompactEstimator exposes the compiled config's estimator (nil when the
// engine is not compiled). Callers probe it for the optional capabilities
// — workload.ElapsedDecomposable, workload.PlacementSignable — that feed
// the branch-and-bound search's bounds and dominance groups.
func (e *Engine) CompactEstimator() workload.CompactEstimator {
	if e.cfg.Compiled == nil {
		return nil
	}
	return e.cfg.Compiled.Est
}

// newEntry carves a memo entry from the arena. Callers hold e.mu.
func (e *Engine) newEntry() *entry {
	if len(e.entArena) == 0 {
		e.entArena = make([]entry, 256)
	}
	ent := &e.entArena[0]
	e.entArena = e.entArena[1:]
	return ent
}

// cloneBytes copies b into the byte arena. Callers hold e.mu.
func (e *Engine) cloneBytes(b []byte) []byte {
	if len(e.byteArena) < len(b) {
		n := 1 << 16
		if n < len(b) {
			n = len(b)
		}
		e.byteArena = make([]byte, n)
	}
	out := e.byteArena[:len(b):len(b)]
	e.byteArena = e.byteArena[len(b):]
	copy(out, b)
	return out
}

// Workers returns the effective fan-out width (the shared budget's width
// when one is configured).
func (e *Engine) Workers() int {
	if e.cfg.Budget != nil {
		return e.cfg.Budget.Workers()
	}
	if e.cfg.Workers < 1 {
		return 1
	}
	return e.cfg.Workers
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Evaluated:      int(e.evaluated.Load()),
		EstimatorCalls: int(e.estCalls.Load()),
	}
}

func (e *Engine) memoLimit() int {
	switch {
	case e.cfg.MemoLimit < 0:
		return int(^uint(0) >> 1) // unlimited
	case e.cfg.MemoLimit == 0:
		return DefaultMemoLimit
	default:
		return e.cfg.MemoLimit
	}
}

// measure runs the estimate → price pipeline once, uncached.
func (e *Engine) measure(l catalog.SetLayout) (Eval, error) {
	if e.sem != nil {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
	}
	if b := e.cfg.Budget; b != nil {
		b.enter()
		defer b.exit()
	}
	e.estCalls.Add(1)
	m, err := workload.EstimateSet(e.cfg.Est, l)
	if err != nil {
		return Eval{}, err
	}
	toc, fits, err := e.cfg.Price(m, l)
	if err != nil {
		return Eval{}, err
	}
	return Eval{Layout: l, Metrics: m, TOCCents: toc, CapacityOK: fits}, nil
}

// Evaluate runs one layout through the pipeline, answering from the memo
// when the layout (by canonical key) has been seen before. Errors are
// memoized too: a layout the estimator or cost model rejects once is
// rejected on every revisit without re-invoking them. When the memo is at
// its limit, new layouts are evaluated without being retained.
//
// On a compiled engine the layout is converted to its compact form and
// evaluated through the compiled pipeline, sharing the compact memo — so
// mixing Evaluate with EvaluateCompact or a Cursor never estimates a layout
// twice.
func (e *Engine) Evaluate(l catalog.SetLayout) (Eval, error) {
	if cc := e.cfg.Compiled; cc != nil {
		if cl, ok := catalog.CompactFromSetLayout(cc.Cat, l); ok {
			return e.evaluateCompact(cl, true, layoutHash(cl.Bytes()), nil)
		}
		// Unencodable layouts (IDs or sets outside the catalog's dense
		// ranges) stay on the map pipeline; the marker prefix keeps their
		// memo keys disjoint from the compact key space.
		return e.evaluateMap("m"+l.Key(), l)
	}
	return e.evaluateMap(l.Key(), l)
}

// EvaluateCompact is Evaluate for compact layouts, hashed and totalled in
// full: seeds and other layouts with no evaluated predecessor (a sweep's
// candidates go through a Cursor). The engine clones cl if it needs to
// retain it, so callers may pass a scratch layout they mutate afterwards.
// Only valid on compiled engines.
func (e *Engine) EvaluateCompact(cl catalog.CompactLayout) (Eval, error) {
	if e.cfg.Compiled == nil {
		return Eval{}, fmt.Errorf("search: EvaluateCompact on an engine without a compiled config")
	}
	return e.evaluateCompact(cl, false, layoutHash(cl.Bytes()), nil)
}

// evaluateMap is the memoized map-form pipeline.
func (e *Engine) evaluateMap(key string, l catalog.SetLayout) (Eval, error) {
	e.evaluated.Add(1)
	e.mu.Lock()
	ent, ok := e.memo[key]
	if !ok {
		if e.memoCount >= e.memoLimit() {
			e.mu.Unlock()
			return e.measure(l)
		}
		ent = e.newEntry()
		e.memo[key] = ent
		e.memoCount++
	}
	e.mu.Unlock()
	if ent.done.Load() {
		return ent.ev, ent.err
	}
	ent.once.Do(func() {
		ent.ev, ent.err = e.measure(l)
		ent.done.Store(true)
	})
	return ent.ev, ent.err
}

// evaluateCompact is the memoized compiled pipeline. owned marks cl as
// transferable (already a private copy), letting the engine retain it
// without another clone; h is layoutHash of cl's bytes. A non-nil cur is
// the cursor whose candidate cl is: a miss then takes its totals, and its
// delta base and moves, from the cursor instead of walking cl.
func (e *Engine) evaluateCompact(cl catalog.CompactLayout, owned bool, h uint64, cur *Cursor) (Eval, error) {
	e.evaluated.Add(1)
	b := cl.Bytes()
	h &= e.hashMask
	e.mu.Lock()
	ent := e.memoC[h]
	for ent != nil && !bytes.Equal(ent.cl.Bytes(), b) {
		ent = ent.next
	}
	if ent == nil {
		if e.memoCount >= e.memoLimit() {
			e.mu.Unlock()
			if !owned {
				cl = cl.Clone()
			}
			return e.measureCompact(cl, cur)
		}
		ent = e.newEntry()
		if !owned {
			cl = catalog.CompactFromBytes(e.cloneBytes(b))
		}
		ent.cl = cl
		ent.next = e.memoC[h]
		e.memoC[h] = ent
		e.memoCount++
	}
	e.mu.Unlock()
	if ent.done.Load() {
		return ent.ev, ent.err
	}
	ent.once.Do(func() {
		ent.ev, ent.err = e.measureCompact(ent.cl, cur)
		ent.done.Store(true)
	})
	return ent.ev, ent.err
}

// measureCompact runs the compiled estimate → price pipeline once,
// uncached. cl is the engine-owned copy of the layout; cur, when non-nil,
// is the cursor that derived its totals and (unless it asked for a full
// estimate) its moves from the running evaluation.
func (e *Engine) measureCompact(cl catalog.CompactLayout, cur *Cursor) (Eval, error) {
	if e.sem != nil {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
	}
	if b := e.cfg.Budget; b != nil {
		b.enter()
		defer b.exit()
	}
	e.estCalls.Add(1)
	cc := e.cfg.Compiled
	var (
		m   workload.Metrics
		st  workload.DeltaState
		err error
	)
	switch {
	case cc.Delta != nil && cur != nil && cur.moves != nil:
		m, st, err = cc.Delta.EstimateDelta(cl, cur.cur.Metrics, cur.cur.state, cur.moves)
	case cc.Delta != nil:
		m, st, err = cc.Delta.EstimateCompactState(cl)
	default:
		m, err = cc.Est.EstimateCompact(cl)
	}
	if err != nil {
		return Eval{}, err
	}
	var sp catalog.ClassSpace
	if cur != nil {
		sp = cur.candSpace
	} else {
		sp = cl.Space(e.sizes)
	}
	toc, fits, err := cc.Price(m, sp)
	if err != nil {
		return Eval{}, err
	}
	return Eval{Compact: cl, Metrics: m, TOCCents: toc, CapacityOK: fits, state: st}, nil
}

// EvaluateAll evaluates the candidates, fanning out across the worker pool,
// and returns the evaluations in input order. On error it returns the
// lowest-index failure, so error reporting is deterministic too.
func (e *Engine) EvaluateAll(layouts []catalog.SetLayout) ([]Eval, error) {
	evs := make([]Eval, len(layouts))
	errs := make([]error, len(layouts))
	if err := Parallel(e.Workers(), len(layouts), func(i int) error {
		evs[i], errs[i] = e.Evaluate(layouts[i])
		return nil
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return evs, nil
}

// Parallel runs fn(i) for every i in [0, n) on up to `workers` goroutines
// and returns the lowest-index error. With workers < 2 it runs inline, in
// order, stopping at the first error.
func Parallel(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next int64 = -1
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	firstErr := error(nil)
	firstIdx := n
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
