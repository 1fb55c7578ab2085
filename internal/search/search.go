// Package search is the shared layout-search engine behind DOT, exhaustive
// search and DOT's SLA-relaxing loop (paper §3, §4.4.3, §4.5.3). All of
// them reduce to the same inner loop — estimate a candidate layout, price
// it (cost and capacity fit), check the SLA — which this package implements
// once, over one representation: a candidate places every unit on a set of
// storage classes as a catalog.CompactLayout, one mask byte per unit, and a
// single-copy layout is the all-singleton case. The engine provides
//
//   - a memo table keyed by those bytes — chained per 64-bit position-keyed
//     XOR hash and resolved by comparing the bytes — so repeated sweeps
//     (OptimizeBest's two policies, SLA halving) never estimate the same
//     layout twice. It is the only memo there is: an evaluation holds for
//     one box and one cost model, so searches over different boxes (a
//     provisioning sweep's candidates) share an estimator and a Budget,
//     never evaluations. Its storage — table, entries, key bytes — is
//     recycled: Engine.Release returns it to a pool the next engine draws
//     from, so a sweep of many small searches allocates it about once, and
//     nothing an engine returned may be read after its Release;
//   - a Cursor that derives a sweep candidate's memo hash, estimate (the
//     estimator's EstimateDelta) and per-class totals from its
//     predecessor's in O(moves), so the per-candidate hot path does not
//     allocate;
//   - one exhaustive walk, the branch-and-bound DFS (ExhaustiveBnB), whose
//     admissible floor and dominance collapse skip only candidates that
//     provably cannot change the result — an estimator offering neither
//     gets the same walk unpruned; and
//   - a bounded worker pool that fans independent candidate evaluations out
//     across goroutines (estimators must be safe for concurrent use — see
//     the workload.Estimator contract).
//
// The estimator is a workload.CompactEstimator: an estimator's compiled form
// (dense per-(unit, class-set) cost tables), or workload.MapForm of one the
// caller could not compile. Which one the engine gets changes what a
// candidate costs, never which candidates are tried or what they evaluate
// to. The engine hashes, clones and delta-chains placement bytes without
// interpreting them — only the estimator and catalog.ClassSpace, which
// totals them per class for the price, know what a byte means.
//
// Results are deterministic regardless of worker count: candidates carry
// their enumeration rank, and ties on TOC resolve to the lowest rank, which
// reproduces the sequential first-found-wins rule exactly.
package search

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dotprov/internal/catalog"
	"dotprov/internal/workload"
)

// Config assembles an Engine. Cat, Est and Price are required.
type Config struct {
	// Cat anchors the dense unit indexing of compact layouts; its unit
	// sizes, snapshotted when the engine is built, are what a layout's
	// per-class totals sum.
	Cat *catalog.Catalog
	// Est estimates compact layouts. It is called at most once per distinct
	// layout; when Workers > 1 it must be safe for concurrent use. A
	// Cursor's candidates go to its EstimateDelta with their predecessor's
	// metrics, everything else to EstimateCompact.
	Est workload.CompactEstimator
	// Price prices the estimated metrics (the TOC model) and reports whether
	// the layout fits the box — one hook, because both answers read the
	// layout's per-class totals, and nothing else: that is what lets a
	// Cursor price a candidate without walking it.
	Price func(m workload.Metrics, sp catalog.ClassSpace) (toc float64, fits bool, err error)
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
}

// DefaultMemoLimit caps the memo at 2^18 entries — enough to fully cache a
// 3^11 exhaustive space or any realistic DOT sweep, while bounding worst-
// case retention to a few hundred MB.
const DefaultMemoLimit = 1 << 18

// Eval is one candidate's constraint-free evaluation: everything about the
// layout that does not depend on the SLA. Feasibility against a concrete
// constraint set is checked per use (Feasible), so a memoized Eval stays
// valid across OptimizeBest's sweeps and the relaxing loop's SLA halvings.
type Eval struct {
	// Compact is the evaluated layout. The engine retains it: callers must
	// not mutate it, nor read it after the engine's Release (ToSetLayout
	// materializes a private map form).
	Compact    catalog.CompactLayout
	Metrics    workload.Metrics
	TOCCents   float64
	CapacityOK bool
}

// Feasible reports whether the evaluated layout fits the box and meets the
// performance constraints.
func (e Eval) Feasible(cons workload.Constraints) bool {
	return e.CapacityOK && cons.Satisfied(e.Metrics)
}

// Stats summarises an engine's work so far.
type Stats struct {
	// Evaluated counts evaluation requests (memo hits included): the
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

// errReleased is what a released engine answers every evaluation with.
var errReleased = errors.New("search: engine used after Release")

type entry struct {
	once sync.Once
	// done mirrors once's completion so memo hits can return without
	// building the once.Do closure (a per-call allocation on the hot path).
	done atomic.Bool
	// cl is the stable (engine-owned) layout of the entry, set at insert
	// time so whichever goroutine runs the measurement works from
	// engine-owned bytes, never a caller's scratch. It doubles as the memo
	// key: the memo chains entries per 64-bit hash and resolves collisions
	// by comparing these bytes, so no key string is ever materialized on
	// the hot path.
	cl   catalog.CompactLayout
	next *entry // hash-chain sibling
	ev   Eval
	err  error
}

// Chunk sizes of a store: entries and key bytes are carved from chunks of
// this many, and a key longer than keyChunk gets a chunk of its own.
const (
	entChunk = 256
	keyChunk = 1 << 16
)

// store is an engine's memo storage: the hash-chained table and the chunks
// its entries and key bytes are carved from. Distinct candidates are the
// hot allocation site of a search, and most searches keep few of them, so
// stores are recycled through storePool rather than allocated per engine:
// a recycled store carves from the chunks it already has before it
// allocates another.
type store struct {
	// memo chains entries per layoutHash of the layout bytes (masked by
	// hashMask), resolved by byte comparison — probing and inserting never
	// build a key string, and a Cursor supplies the hash without reading
	// the bytes.
	memo map[uint64]*entry
	// ents holds the entry chunks; the first used of them (in order) are
	// in the memo, so used is also the retained count the MemoLimit bounds.
	ents [][]entry
	used int
	// keys holds the key-byte chunks; key and keyOff locate the next free
	// byte.
	keys        [][]byte
	key, keyOff int
}

// storePool recycles the stores of released engines.
var storePool = sync.Pool{New: func() any { return &store{memo: make(map[uint64]*entry)} }}

// newEntry carves a memo entry from the store's chunks.
func (s *store) newEntry() *entry {
	c := s.used / entChunk
	if c == len(s.ents) {
		s.ents = append(s.ents, make([]entry, entChunk))
	}
	ent := &s.ents[c][s.used%entChunk]
	s.used++
	return ent
}

// cloneBytes copies b into the store's key chunks.
func (s *store) cloneBytes(b []byte) []byte {
	for s.key < len(s.keys) && len(s.keys[s.key])-s.keyOff < len(b) {
		s.key, s.keyOff = s.key+1, 0
	}
	if s.key == len(s.keys) {
		s.keys = append(s.keys, make([]byte, max(keyChunk, len(b))))
	}
	out := s.keys[s.key][s.keyOff : s.keyOff+len(b) : s.keyOff+len(b)]
	s.keyOff += len(b)
	copy(out, b)
	return out
}

// reset empties the store for its next engine. It zeroes the used entries
// — so a pooled store keeps no estimator state, metrics or error reachable,
// and every entry's sync.Once is fresh — and clears the table. Key bytes
// hold no pointers and are simply overwritten.
func (s *store) reset() {
	for c := 0; c*entChunk < s.used; c++ {
		clear(s.ents[c][:min(entChunk, s.used-c*entChunk)])
	}
	clear(s.memo)
	s.used, s.key, s.keyOff = 0, 0, 0
}

// Engine evaluates candidate layouts through the memoized
// estimate → price → check pipeline. An Engine is safe for concurrent use;
// share one across sweeps to share its memo table. Its memo storage is
// recycled once the search is over: see Release.
type Engine struct {
	cfg Config
	// mu guards st, which is nil once the engine is released.
	mu sync.Mutex
	st *store
	// hashMask is all ones. Tests zero it so that every layout lands on one
	// chain: the memo's answers rest on the byte comparison, not the hash.
	hashMask uint64
	// sizes is the catalog's dense size table, frozen per engine like the
	// estimators' statistics.
	sizes     []int64
	evaluated atomic.Int64
	estCalls  atomic.Int64
}

// New builds an engine on a recycled memo store (see Release). It returns
// an error when the config lacks the catalog, the estimator or the cost
// model.
func New(cfg Config) (*Engine, error) {
	if cfg.Cat == nil || cfg.Est == nil || cfg.Price == nil {
		return nil, fmt.Errorf("search: Config requires Cat, Est and Price")
	}
	e := &Engine{cfg: cfg, st: storePool.Get().(*store), hashMask: ^uint64(0), sizes: cfg.Cat.DenseSizeBytes()}
	// cfg.Budget admits every estimator invocation. An engine fanning out
	// on its own gets a private budget of its width, so concurrent sweeps
	// sharing it (OptimizeBest) cannot oversubscribe past that width.
	if cfg.Budget == nil && cfg.Workers > 1 {
		e.cfg.Budget = NewBudget(cfg.Workers)
	}
	return e, nil
}

// CompactEstimator exposes the engine's estimator. Callers probe it for the
// optional capabilities — workload.ElapsedDecomposable,
// workload.PlacementSignable — that feed the branch-and-bound search's
// bounds and dominance groups.
func (e *Engine) CompactEstimator() workload.CompactEstimator { return e.cfg.Est }

// Release ends the engine's life: its memo store goes back to the pool for
// the next engine, and every later evaluation — Evaluate, EvaluateCompact,
// a Cursor's Try, ExhaustiveBnB — fails with an error. Nothing the engine
// returned may be read afterwards, an Eval's Compact bytes (the memo's own
// key) included, so a caller that keeps a result materializes it first. It
// must not run concurrently with any other use of the engine; a second
// Release is a no-op. An engine that is never released is simply
// collected.
func (e *Engine) Release() {
	e.mu.Lock()
	st := e.st
	e.st = nil
	e.mu.Unlock()
	if st != nil {
		st.reset()
		storePool.Put(st)
	}
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

// EvaluateCompact runs one layout through the pipeline, hashed and totalled
// in full — seeds and other layouts with no evaluated predecessor (a
// sweep's candidates go through a Cursor) — answering from the memo when
// the layout has been seen before. Errors are memoized too: a layout the
// estimator or cost model rejects once is rejected on every revisit without
// re-invoking them. When the memo is at its limit, new layouts are
// evaluated without being retained. The engine clones cl if it needs to
// retain it, so callers may pass a scratch layout they mutate afterwards.
func (e *Engine) EvaluateCompact(cl catalog.CompactLayout) (Eval, error) {
	return e.evaluateCompact(cl, layoutHash(cl.Bytes()), nil)
}

// evaluateCompact is the memoized pipeline; h is layoutHash of cl's bytes.
// The engine retains a copy of cl, never cl itself. A non-nil cur is the
// cursor whose candidate cl is: a miss then takes its totals, and its
// delta base and moves, from the cursor instead of walking cl.
func (e *Engine) evaluateCompact(cl catalog.CompactLayout, h uint64, cur *Cursor) (Eval, error) {
	b := cl.Bytes()
	h &= e.hashMask
	e.mu.Lock()
	st := e.st
	if st == nil {
		e.mu.Unlock()
		return Eval{}, errReleased
	}
	e.evaluated.Add(1)
	ent := st.memo[h]
	for ent != nil && !bytes.Equal(ent.cl.Bytes(), b) {
		ent = ent.next
	}
	if ent == nil {
		if st.used >= e.memoLimit() {
			e.mu.Unlock()
			return e.measureCompact(cl.Clone(), cur)
		}
		ent = st.newEntry()
		ent.cl = catalog.CompactFromBytes(st.cloneBytes(b))
		ent.next = st.memo[h]
		st.memo[h] = ent
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

// measureCompact runs the estimate → price pipeline once, uncached. cl is
// the engine-owned copy of the layout; cur, when non-nil, is the cursor
// that derived its totals and (unless it asked for a full estimate) its
// moves from the running evaluation, whose metrics the delta starts from.
func (e *Engine) measureCompact(cl catalog.CompactLayout, cur *Cursor) (Eval, error) {
	if b := e.cfg.Budget; b != nil {
		b.Enter()
		defer b.Exit()
	}
	e.estCalls.Add(1)
	var (
		m   workload.Metrics
		err error
	)
	if cur != nil && cur.moves != nil {
		m, err = e.cfg.Est.EstimateDelta(cl, cur.cur.Metrics, cur.moves)
	} else {
		m, err = e.cfg.Est.EstimateCompact(cl)
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
	toc, fits, err := e.cfg.Price(m, sp)
	if err != nil {
		return Eval{}, err
	}
	return Eval{Compact: cl, Metrics: m, TOCCents: toc, CapacityOK: fits}, nil
}

// Parallel runs fn(i) for every i in [0, n) on up to `workers` goroutines,
// the calling one among them, and returns the lowest-index error. With
// workers < 2 it runs inline, in order, stopping at the first error.
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
	f := &fanOut{fn: fn, n: n, firstIdx: n}
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go f.helper()
	}
	f.work()
	f.wg.Wait()
	return f.firstErr
}

// fanOut is one Parallel call's shared state, kept in one object so the
// call allocates it once rather than once per variable its workers share.
type fanOut struct {
	fn       func(i int) error
	n        int
	next     atomic.Int64 // indexes claimed so far
	wg       sync.WaitGroup
	mu       sync.Mutex
	firstIdx int
	firstErr error
}

// helper is the body of each goroutine beside the caller's.
func (f *fanOut) helper() {
	defer f.wg.Done()
	f.work()
}

// work claims indexes until none is left, keeping the lowest-index error.
func (f *fanOut) work() {
	for {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		if err := f.fn(i); err != nil {
			f.mu.Lock()
			if i < f.firstIdx {
				f.firstIdx, f.firstErr = i, err
			}
			f.mu.Unlock()
		}
	}
}
