package search

import (
	"sync"
	"sync/atomic"

	"dotprov/internal/catalog"
	"dotprov/internal/workload"
)

// MemoEstimator wraps an Estimator with a metrics memo keyed by the
// canonical layout encoding (Key of any layout form). It is the sweep-level sibling
// of the Engine's memo: an Engine caches full evaluations (metrics + TOC +
// capacity), which are only valid for one box and one cost model, whereas
// the estimator's metrics depend solely on the layout and the per-class
// service times. A provisioning sweep therefore shares ONE MemoEstimator
// across every candidate configuration's engine: a layout estimated while
// searching candidate A is answered from the memo when candidate B's search
// reaches it, even though the two candidates price and capacity-check it
// differently.
//
// The wrapped estimator must be safe for concurrent use when the memo is
// driven from multiple goroutines (the workload.Estimator contract). Errors
// are memoized like results. A MemoEstimator is safe for concurrent use.
type MemoEstimator struct {
	est   workload.Estimator
	limit int
	mu    sync.Mutex
	memo  map[string]*memoEntry
	calls atomic.Int64
}

type memoEntry struct {
	once  sync.Once
	m     workload.Metrics
	state workload.DeltaState
	err   error
}

// Memoize wraps est. The limit bounds retained entries as in
// Config.MemoLimit: 0 selects DefaultMemoLimit, negative means unlimited;
// once full, further distinct layouts are estimated without caching.
func Memoize(est workload.Estimator, limit int) *MemoEstimator {
	if limit == 0 {
		limit = DefaultMemoLimit
	}
	return &MemoEstimator{est: est, limit: limit, memo: make(map[string]*memoEntry)}
}

// lookup returns the memo entry for a key, or nil when the memo is full
// and the key unseen (caller then estimates uncached).
func (me *MemoEstimator) lookup(key string) *memoEntry {
	me.mu.Lock()
	defer me.mu.Unlock()
	ent, ok := me.memo[key]
	if !ok {
		if me.limit >= 0 && len(me.memo) >= me.limit {
			return nil
		}
		ent = &memoEntry{}
		me.memo[key] = ent
	}
	return ent
}

// The three layout forms' keys live in one memo but disjoint key spaces
// (the prefixes), so the access paths can never conflate layouts — a class
// byte and a mask byte can collide numerically.
func compactKey(cl catalog.CompactLayout) string { return "c" + cl.Key() }

// memoized answers key from the memo, running estimate on a miss.
func (me *MemoEstimator) memoized(key string, estimate func() (workload.Metrics, error)) (workload.Metrics, error) {
	ent := me.lookup(key)
	if ent == nil {
		me.calls.Add(1)
		return estimate()
	}
	ent.once.Do(func() {
		me.calls.Add(1)
		ent.m, ent.err = estimate()
	})
	return ent.m, ent.err
}

// Estimate implements workload.Estimator.
func (me *MemoEstimator) Estimate(l catalog.Layout) (workload.Metrics, error) {
	return me.memoized("m"+l.Key(), func() (workload.Metrics, error) { return me.est.Estimate(l) })
}

// EstimateSet implements workload.SetEstimator — the form the search
// engine's map path asks through. A wrapped estimator without a replica
// form answers for its single-class view (see workload.EstimateSet).
func (me *MemoEstimator) EstimateSet(l catalog.SetLayout) (workload.Metrics, error) {
	return me.memoized("s"+l.Key(), func() (workload.Metrics, error) { return workload.EstimateSet(me.est, l) })
}

// EstimateCompact implements workload.CompactEstimator: compact-capable
// inner estimators answer directly, others through a one-time map
// materialization per distinct layout (memoized like everything else).
func (me *MemoEstimator) EstimateCompact(cl catalog.CompactLayout) (workload.Metrics, error) {
	m, _, err := me.EstimateCompactState(cl)
	return m, err
}

// estimateCompactUncached runs the inner estimator for a compact layout.
func (me *MemoEstimator) estimateCompactUncached(cl catalog.CompactLayout) (workload.Metrics, workload.DeltaState, error) {
	me.calls.Add(1)
	if de, ok := me.est.(workload.DeltaEstimator); ok {
		return de.EstimateCompactState(cl)
	}
	if ce, ok := me.est.(workload.CompactEstimator); ok {
		m, err := ce.EstimateCompact(cl)
		return m, nil, err
	}
	m, err := workload.EstimateSet(me.est, cl.ToSetLayout())
	return m, nil, err
}

// EstimateCompactState implements workload.DeltaEstimator.
func (me *MemoEstimator) EstimateCompactState(cl catalog.CompactLayout) (workload.Metrics, workload.DeltaState, error) {
	ent := me.lookup(compactKey(cl))
	if ent == nil {
		return me.estimateCompactUncached(cl)
	}
	ent.once.Do(func() {
		// The layout may outlive the caller's scratch: snapshot it.
		ent.m, ent.state, ent.err = me.estimateCompactUncached(cl.Clone())
	})
	return ent.m, ent.state, ent.err
}

// EstimateDelta implements workload.DeltaEstimator. The memo answers
// revisits (e.g. a layout another sweep candidate already reached) without
// touching the inner estimator; misses delegate the delta when the inner
// estimator supports it and fall back to a full compact estimate otherwise.
func (me *MemoEstimator) EstimateDelta(cl catalog.CompactLayout, base workload.Metrics, state workload.DeltaState, moves []workload.ObjectMove) (workload.Metrics, workload.DeltaState, error) {
	ent := me.lookup(compactKey(cl))
	if ent == nil {
		if de, ok := me.est.(workload.DeltaEstimator); ok {
			me.calls.Add(1)
			return de.EstimateDelta(cl, base, state, moves)
		}
		return me.estimateCompactUncached(cl)
	}
	ent.once.Do(func() {
		if de, ok := me.est.(workload.DeltaEstimator); ok {
			me.calls.Add(1)
			ent.m, ent.state, ent.err = de.EstimateDelta(cl.Clone(), base, state, moves)
			return
		}
		ent.m, ent.state, ent.err = me.estimateCompactUncached(cl.Clone())
	})
	return ent.m, ent.state, ent.err
}

// Calls returns the number of underlying estimator invocations (memo
// misses) so far.
func (me *MemoEstimator) Calls() int { return int(me.calls.Load()) }
