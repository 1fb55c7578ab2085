package search

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// Space is an assignment space for exhaustive enumeration: every Free
// object ranges over Digits — the alphabet of class sets a unit may be
// placed on, the box's singletons for single-copy search — while Base pins
// everything else. Candidates are generated in odometer order — Free[0]
// cycles fastest — matching the paper's M^N enumeration.
//
// SizeGB (dense, indexed by catalog.DenseIndex), PriceCents and Bound are
// the accumulator form of pruning, shared with CompactSpace: when Bound is
// set the walk maintains the running per-hour storage cost of the base
// plus every assigned object incrementally — one multiply-add per
// assignment instead of a partial-layout walk per node — and consults
// Bound with it. A map-form LowerBound passed alongside is only used when
// Bound is nil.
type Space struct {
	Base       catalog.SetLayout
	Free       []catalog.ObjectID
	Digits     []device.ClassSet
	SizeGB     []float64
	PriceCents [device.NumClasses]float64
	Bound      CompactBound
}

// LowerBound returns an admissible lower bound on the TOC of every layout
// that completes the partial assignment: `partial` holds Base plus the
// already-assigned free objects, `unassigned` lists the free objects still
// open. Enumeration prunes a subtree only when the bound strictly exceeds
// the incumbent feasible TOC, so an admissible bound never changes the
// result — only how many candidates are evaluated.
type LowerBound func(partial catalog.SetLayout, unassigned []catalog.ObjectID) (float64, error)

// CompactBound is the compiled path's admissible lower bound. Instead of
// re-walking a partial layout per node, it receives the DFS's running
// per-hour storage cost of the base plus every assigned object (maintained
// incrementally per assignment) and the free objects still unassigned.
// ok=false declines to bound (no pruning at that node).
type CompactBound func(perHourCents float64, unassigned []catalog.ObjectID) (floor float64, ok bool)

// CompactSpace is Space for the compiled DFS. SizeGB (dense, indexed by
// catalog.DenseIndex) and PriceCents (per class; a digit is priced at the
// sum of its members) feed the running storage-cost accumulator; both are
// required when Bound is set.
type CompactSpace struct {
	Base       catalog.CompactLayout
	Free       []catalog.ObjectID
	Digits     []device.ClassSet
	SizeGB     []float64
	PriceCents [device.NumClasses]float64
	Bound      CompactBound
}

// incumbent tracks the best feasible evaluation with the deterministic
// tie-break: lower TOC wins, equal TOC resolves to the lower enumeration
// index (the sequential first-found-wins rule).
type incumbent struct {
	mu  sync.Mutex
	ok  bool
	idx int
	ev  Eval
}

func (b *incumbent) offer(idx int, ev Eval) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ok || ev.TOCCents < b.ev.TOCCents || (ev.TOCCents == b.ev.TOCCents && idx < b.idx) {
		b.ok, b.idx, b.ev = true, idx, ev
	}
}

func (b *incumbent) toc() (float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ev.TOCCents, b.ok
}

func (b *incumbent) get() (Eval, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ev, b.ok
}

var errStopped = errors.New("search: enumeration stopped")

// enumerate walks the space depth-first in odometer order, pruning subtrees
// whose lower bound strictly exceeds the incumbent, and calls emit with each
// surviving candidate (a fresh clone) and its enumeration index. With
// sp.Bound set, pruning runs on the incremental storage-cost accumulator
// (no per-node partial walk); otherwise a LowerBound closure is consulted
// per node. It returns the enumeration's statistics.
func enumerate(sp Space, lb LowerBound, best *incumbent, emit func(idx int, l catalog.SetLayout) error) (EnumStats, error) {
	var stats EnumStats
	partial := make(catalog.SetLayout)
	if sp.Base != nil {
		partial = sp.Base.Clone()
	}
	// Base may place the free objects too (ExhaustivePartial pins a full
	// layout); strip them so `partial` holds exactly the pinned plus the
	// already-assigned objects, as the LowerBound contract promises.
	for _, id := range sp.Free {
		delete(partial, id)
	}
	// Accumulator bound: seed with the pinned objects' storage cost, summed
	// in ascending dense order (deterministic — map iteration is not).
	accum := sp.Bound != nil
	var basePerHour float64
	var prices []float64
	if accum {
		prices = digitPrices(&sp.PriceCents, sp.Digits)
		for i := range sp.SizeGB {
			if set, ok := partial[catalog.ObjectID(i+1)]; ok {
				basePerHour += digitPriceCents(&sp.PriceCents, set) * sp.SizeGB[i]
			}
		}
	}
	idx := 0
	var rec func(i int, perHour float64) error
	rec = func(i int, perHour float64) error {
		if i < 0 {
			err := emit(idx, partial.Clone())
			idx++
			return err
		}
		obj := sp.Free[i]
		defer delete(partial, obj)
		size := 0.0
		if accum {
			size = sp.SizeGB[catalog.DenseIndex(obj)]
		}
		for ci, c := range sp.Digits {
			partial[obj] = c
			ph := perHour
			if accum {
				ph += prices[ci] * size
				if inc, ok := best.toc(); ok {
					if floor, bounded := sp.Bound(ph, sp.Free[:i]); bounded && floor > inc {
						stats.BoundPruned++
						continue
					}
				}
			} else if lb != nil {
				if inc, ok := best.toc(); ok {
					floor, err := lb(partial, sp.Free[:i])
					if err != nil {
						return err
					}
					if floor > inc {
						stats.BoundPruned++
						continue
					}
				}
			}
			if err := rec(i-1, ph); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(len(sp.Free)-1, basePerHour)
	stats.Candidates = idx
	return stats, err
}

// Exhaustive enumerates the space and returns the feasible evaluation with
// the minimum TOC (ties to the earliest candidate in enumeration order),
// whether one exists, and the enumeration's statistics. Candidates fan out
// across the engine's worker pool; with a bound the evaluated count
// depends on how early the incumbent tightens (under parallel evaluation
// that timing varies), but the returned best never does.
func (e *Engine) Exhaustive(cons workload.Constraints, sp Space, lb LowerBound) (Eval, bool, EnumStats, error) {
	if len(sp.Digits) == 0 {
		return Eval{}, false, EnumStats{}, fmt.Errorf("search: exhaustive space has no classes")
	}
	if sp.Bound != nil && sp.SizeGB == nil {
		return Eval{}, false, EnumStats{}, fmt.Errorf("search: Space.Bound requires SizeGB/PriceCents")
	}
	best := &incumbent{}
	workers := e.Workers()
	if workers < 2 {
		stats, err := enumerate(sp, lb, best, func(idx int, l catalog.SetLayout) error {
			ev, err := e.Evaluate(l)
			if err != nil {
				return err
			}
			if ev.Feasible(cons) {
				best.offer(idx, ev)
			}
			return nil
		})
		if err != nil {
			return Eval{}, false, EnumStats{}, err
		}
		ev, ok := best.get()
		return ev, ok, stats, nil
	}

	type job struct {
		idx int
		l   catalog.SetLayout
	}
	jobs := make(chan job, workers*2)
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		errMu sync.Mutex
		loErr error
		loIdx = int(^uint(0) >> 1) // max int
	)
	fail := func(idx int, err error) {
		errMu.Lock()
		if err != nil && idx < loIdx {
			loIdx, loErr = idx, err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ev, err := e.Evaluate(j.l)
				if err != nil {
					fail(j.idx, err)
					continue
				}
				if ev.Feasible(cons) {
					best.offer(j.idx, ev)
				}
			}
		}()
	}
	stats, genErr := enumerate(sp, lb, best, func(idx int, l catalog.SetLayout) error {
		if stop.Load() {
			return errStopped
		}
		jobs <- job{idx: idx, l: l}
		return nil
	})
	close(jobs)
	wg.Wait()
	errMu.Lock()
	err := loErr
	errMu.Unlock()
	if err == nil && genErr != nil && genErr != errStopped {
		err = genErr
	}
	if err != nil {
		return Eval{}, false, EnumStats{}, err
	}
	ev, ok := best.get()
	return ev, ok, stats, nil
}

// compactWalk drives the compiled DFS over a CompactSpace in the same
// odometer order as the map-path enumerate (Free[0] cycles fastest),
// maintaining the running per-hour storage-cost accumulator per assignment
// and pruning against it through sp.Bound. scratch is the shared in-place
// partial assignment; leaf calls emit with it fully assigned.
type compactWalk struct {
	sp       CompactSpace
	scratch  catalog.CompactLayout
	best     *incumbent
	bounding bool
	prices   []float64 // per digit, when bounding
	idx      int
	pruned   int
	emit     func(idx int, leafObj catalog.ObjectID, leafSet device.ClassSet, first bool) error
}

func (w *compactWalk) run() error {
	if len(w.sp.Free) == 0 {
		err := w.emit(w.idx, 0, 0, true)
		w.idx++
		return err
	}
	var basePerHour float64
	if w.bounding {
		w.prices = digitPrices(&w.sp.PriceCents, w.sp.Digits)
		for i := 0; i < w.scratch.Len(); i++ {
			if set, ok := w.scratch.At(i); ok {
				basePerHour += digitPriceCents(&w.sp.PriceCents, set) * w.sp.SizeGB[i]
			}
		}
	}
	return w.rec(len(w.sp.Free)-1, basePerHour)
}

// prune reports whether the subtree under the running cost can be cut.
func (w *compactWalk) prune(perHour float64, unassigned []catalog.ObjectID) bool {
	inc, ok := w.best.toc()
	if !ok {
		return false
	}
	floor, bounded := w.sp.Bound(perHour, unassigned)
	return bounded && floor > inc
}

func (w *compactWalk) rec(i int, perHour float64) error {
	obj := w.sp.Free[i]
	defer w.scratch.Unset(obj)
	size := 0.0
	if w.bounding {
		size = w.sp.SizeGB[catalog.DenseIndex(obj)]
	}
	if i == 0 {
		// Innermost level: siblings differ only in obj's digit, so emit
		// carries the move for delta evaluation.
		first := true
		for ci, c := range w.sp.Digits {
			w.scratch.Set(obj, c)
			if w.bounding && w.prune(perHour+w.prices[ci]*size, w.sp.Free[:0]) {
				w.pruned++
				continue
			}
			if err := w.emit(w.idx, obj, c, first); err != nil {
				return err
			}
			w.idx++
			first = false
		}
		return nil
	}
	for ci, c := range w.sp.Digits {
		w.scratch.Set(obj, c)
		ph := perHour
		if w.bounding {
			ph += w.prices[ci] * size
			if w.prune(ph, w.sp.Free[:i]) {
				w.pruned++
				continue
			}
		}
		if err := w.rec(i-1, ph); err != nil {
			return err
		}
	}
	return nil
}

// ExhaustiveCompact is Exhaustive on the compiled path: candidates are
// generated by mutating one scratch compact layout (no per-node cloning),
// the storage-cost accumulator feeds the bound incrementally, and on the
// sequential path each innermost sibling is re-estimated as a one-move
// delta from its predecessor. Results are bit-identical to the map path at
// any worker count; with a Bound the evaluated count depends on how early
// the incumbent tightens, exactly as for Exhaustive.
func (e *Engine) ExhaustiveCompact(cons workload.Constraints, sp CompactSpace) (Eval, bool, EnumStats, error) {
	if e.cfg.Compiled == nil {
		return Eval{}, false, EnumStats{}, fmt.Errorf("search: ExhaustiveCompact on an engine without a compiled config")
	}
	if len(sp.Digits) == 0 {
		return Eval{}, false, EnumStats{}, fmt.Errorf("search: exhaustive space has no classes")
	}
	if sp.Bound != nil && sp.SizeGB == nil {
		return Eval{}, false, EnumStats{}, fmt.Errorf("search: CompactSpace.Bound requires SizeGB/PriceCents")
	}
	scratch := sp.Base.Clone()
	if scratch.IsZero() {
		scratch = catalog.NewCompactLayout(e.cfg.Compiled.Cat.NumObjects())
	}
	// Base may place the free objects too; strip them so the accumulator
	// covers exactly the pinned objects, as on the map path.
	for _, id := range sp.Free {
		scratch.Unset(id)
	}
	best := &incumbent{}
	w := &compactWalk{sp: sp, scratch: scratch, best: best, bounding: sp.Bound != nil}

	if e.Workers() < 2 {
		var (
			prev    Eval
			prevOK  bool
			prevCls device.ClassSet
			moves   [1]workload.ObjectMove
		)
		w.emit = func(idx int, leafObj catalog.ObjectID, leafCls device.ClassSet, first bool) error {
			// The first candidate of each innermost sibling group gets a full
			// compiled estimate (levels above Free[0] changed); its siblings
			// differ from it by one move and are re-estimated as deltas.
			if first {
				prevOK = false
			}
			var ev Eval
			var err error
			if prevOK {
				moves[0] = workload.ObjectMove{Obj: leafObj, From: prevCls, To: leafCls}
				ev, err = e.EvaluateDelta(prev, scratch, moves[:])
			} else {
				ev, err = e.EvaluateCompact(scratch)
			}
			if err != nil {
				return err
			}
			if ev.Feasible(cons) {
				best.offer(idx, ev)
			}
			prev, prevOK, prevCls = ev, true, leafCls
			return nil
		}
		if err := w.run(); err != nil {
			return Eval{}, false, EnumStats{}, err
		}
		ev, ok := best.get()
		return ev, ok, EnumStats{Candidates: w.idx, BoundPruned: w.pruned}, nil
	}

	type job struct {
		idx int
		cl  catalog.CompactLayout
	}
	workers := e.Workers()
	jobs := make(chan job, workers*2)
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		errMu sync.Mutex
		loErr error
		loIdx = int(^uint(0) >> 1) // max int
	)
	fail := func(idx int, err error) {
		errMu.Lock()
		if err != nil && idx < loIdx {
			loIdx, loErr = idx, err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ev, err := e.evaluateCompact(j.cl, true, workload.Metrics{}, nil, nil)
				if err != nil {
					fail(j.idx, err)
					continue
				}
				if ev.Feasible(cons) {
					best.offer(j.idx, ev)
				}
			}
		}()
	}
	// Generator-local clone arena: the generator is a single goroutine, so
	// candidate copies are carved lock-free from chunks.
	var arena []byte
	cloneScratch := func() catalog.CompactLayout {
		b := scratch.Bytes()
		if len(arena) < len(b) {
			n := 1 << 16
			if n < len(b) {
				n = len(b)
			}
			arena = make([]byte, n)
		}
		out := arena[:len(b):len(b)]
		arena = arena[len(b):]
		copy(out, b)
		return catalog.CompactFromBytes(out)
	}
	w.emit = func(idx int, _ catalog.ObjectID, _ device.ClassSet, _ bool) error {
		if stop.Load() {
			return errStopped
		}
		jobs <- job{idx: idx, cl: cloneScratch()}
		return nil
	}
	genErr := w.run()
	close(jobs)
	wg.Wait()
	errMu.Lock()
	err := loErr
	errMu.Unlock()
	if err == nil && genErr != nil && genErr != errStopped {
		err = genErr
	}
	if err != nil {
		return Eval{}, false, EnumStats{}, err
	}
	ev, ok := best.get()
	return ev, ok, EnumStats{Candidates: w.idx, BoundPruned: w.pruned}, nil
}
