// Branch-and-bound enumeration: the paper's M^N odometer as a best-first
// DFS over one scratch compact layout, with three pruning levers layered on
// top of the engine's evaluation pipeline —
//
//  1. tight admissible bounds: per-unit best-class storage and time floors
//     precomputed from the compiled tables and suffix-summed over the DFS
//     order (see UnitBounds), so every partial assignment is bounded by
//     achievable costs in O(1);
//  2. dominance: symmetric units (equal placement signatures) enumerate
//     only non-decreasing digit assignments, one canonical layout per
//     symmetry orbit (see dominance.go for why that preserves the
//     deterministic tie-break);
//  3. expansion order: units sorted by descending cost spread, so
//     high-impact decisions bind near the root and the bound cuts deep.
//
// Parallel runs split the tree at a depth chosen from the worker count
// into frontier subtrees that workers claim in order through one atomic
// cursor, around a shared incumbent whose TOC is published through one
// atomic word — a prune check never takes a lock. Results are
// bit-identical to the sequential, unpruned odometer enumeration: the bound
// only cuts subtrees that provably cannot beat the incumbent, and TOC ties
// resolve by the candidate's canonical rank — the odometer index in
// positional form — at any worker count. With neither lever (an estimator
// that cannot bound or sign, such as workload.MapForm) the walk is that
// enumeration: every layout, in odometer order.
package search

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// BnBSpace is the branch-and-bound assignment space: every Free unit ranges
// over Digits — the alphabet of class sets a unit may be placed on, the
// box's singletons for single-copy search — while Base pins everything
// else (a zero Base pins nothing); Free[0] cycles fastest in the odometer
// order that ranks candidates. SizeGB (dense, by catalog.DenseIndex) and
// PriceCents feed the storage accumulator. Bounds enables cost bounding
// and the descending-spread expansion order (nil: enumerate in odometer
// order without a floor — the throughput objective), Sigs enables
// dominance (nil: no symmetry collapse). With both nil the walk is the
// plain enumeration of the whole space. Only the storage price
// reads a digit's members; hashing, cloning, delta chains, dominance and
// ranks are byte-opaque.
type BnBSpace struct {
	Base       catalog.CompactLayout
	Free       []catalog.ObjectID
	Digits     []device.ClassSet
	SizeGB     []float64
	PriceCents [device.NumClasses]float64
	Bounds     *UnitBounds
	Sigs       [][]byte
}

// EnumStats describes one exhaustive enumeration's work: how large the
// space was, how much of it was actually evaluated, and where the rest
// went.
type EnumStats struct {
	// Candidates is the number of layouts evaluated.
	Candidates int
	// BoundPruned counts subtree cuts by the admissible bound (each cut
	// discards every completion under that node).
	BoundPruned int
	// Groups and GroupedUnits summarize dominance: how many symmetry groups
	// of two or more interchangeable units were found, covering how many
	// units.
	Groups       int
	GroupedUnits int
	// SpaceSize is the full assignment space |Digits|^|Free|;
	// CanonicalSize is what dominance collapses it to (equal when no
	// symmetry was found).
	SpaceSize     float64
	CanonicalSize float64
	// RootFloorCents is the admissible TOC floor of the whole space (0 when
	// enumerating without a bound). Comparing it to the winning TOC
	// measures bound tightness.
	RootFloorCents float64
	// SplitDepth and FrontierTasks describe the parallel split (0 on the
	// sequential path).
	SplitDepth    int
	FrontierTasks int
}

// add accumulates a worker's per-walk counters.
func (s *EnumStats) add(o EnumStats) {
	s.Candidates += o.Candidates
	s.BoundPruned += o.BoundPruned
}

func denseOf(id catalog.ObjectID) int { return catalog.DenseIndex(id) }

// bnbIncumbent is the shared incumbent: the best TOC is published through
// an atomic word so the hot prune check is one load, while adoption — rare
// — takes the mutex and settles TOC ties by canonical rank, the positional
// form of the odometer index (digit of Free[n-1] first), so "lower rank"
// is exactly "earlier in the unpruned enumeration".
type bnbIncumbent struct {
	bits atomic.Uint64 // Float64bits of the best feasible TOC; +Inf when none
	mu   sync.Mutex
	ok   bool
	ev   Eval
	rank []byte
}

func newBnBIncumbent() *bnbIncumbent {
	b := &bnbIncumbent{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// toc returns the current best feasible TOC (+Inf when none) without
// locking.
func (b *bnbIncumbent) toc() float64 { return math.Float64frombits(b.bits.Load()) }

func (b *bnbIncumbent) offer(ev Eval, rank []byte) {
	if ev.TOCCents > b.toc() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ok || ev.TOCCents < b.ev.TOCCents ||
		(ev.TOCCents == b.ev.TOCCents && bytes.Compare(rank, b.rank) < 0) {
		b.ok, b.ev = true, ev
		b.rank = append(b.rank[:0], rank...)
		b.bits.Store(math.Float64bits(ev.TOCCents))
	}
}

func (b *bnbIncumbent) get() (Eval, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ev, b.ok
}

// maxFrontier caps the number of pre-split subtree tasks.
const maxFrontier = 1 << 14

// bnbShared is the per-search read-mostly state every walker shares.
type bnbShared struct {
	e    *Engine
	cons workload.Constraints
	sp   *BnBSpace
	n, m int
	// order maps visit position -> free index; prevInGroup maps visit
	// position -> the previous visit position holding a unit of the same
	// symmetry group (-1 when none): that unit's digit is this one's floor.
	order       []int
	prevInGroup []int
	// densePos maps free index -> dense slot; clsIdx maps a compact-layout
	// placement byte -> its digit (index in sp.Digits).
	densePos []int
	clsIdx   [256]uint8
	// Bounding state (bounding=false leaves the rest zero).
	bounding  bool
	prices    []float64
	minStore  []float64
	minTime   []time.Duration
	baseStore float64
	baseTime  time.Duration
	best      *bnbIncumbent
	stop      atomic.Bool
	errMu     sync.Mutex
	errRank   []byte
	err       error
}

// fail records an evaluation error, keeping the lowest-rank one so error
// reporting is deterministic at any worker count (the sequential walk's
// first error), and stops the enumeration.
func (sh *bnbShared) fail(rank []byte, err error) {
	sh.errMu.Lock()
	if sh.err == nil || bytes.Compare(rank, sh.errRank) < 0 {
		sh.err = err
		sh.errRank = append(sh.errRank[:0], rank...)
	}
	sh.errMu.Unlock()
	sh.stop.Store(true)
}

// timeRow returns visit-independent unit u's per-class elapsed row.
func (sh *bnbShared) timeRow(u int) []time.Duration {
	return sh.sp.Bounds.unitTimeRow(u, sh.m)
}

// prune reports whether a floor cuts the subtree, with the float-safety
// slack that keeps the reassociated storage sum admissible.
func (sh *bnbShared) prune(store float64, t time.Duration) bool {
	return store*t.Hours()*(1-boundSlack) > sh.best.toc()
}

// bnbWalker is one worker's mutable walk state. chain is a cursor over
// scratch that serves the innermost level only: the levels above write
// scratch directly, so each sibling group re-seats it.
type bnbWalker struct {
	sh      *bnbShared
	scratch catalog.CompactLayout
	chain   *Cursor
	digits  []uint8
	rankBuf []byte
	prevOK  bool
	moves   [1]workload.ObjectMove
	stats   EnumStats
}

// computeRank fills rankBuf with the leaf's canonical rank: class digits
// read from the scratch layout in descending original free position, so
// byte comparison of two ranks orders them exactly like their odometer
// indices.
func (w *bnbWalker) computeRank() {
	sh := w.sh
	b := w.scratch.Bytes()
	for j := 0; j < sh.n; j++ {
		w.rankBuf[j] = sh.clsIdx[b[sh.densePos[sh.n-1-j]]]
	}
}

// offer routes a feasible leaf to the incumbent, computing the rank only
// when the candidate can actually win (TOC at or below the incumbent).
func (w *bnbWalker) offer(ev Eval) {
	if ev.TOCCents > w.sh.best.toc() {
		return
	}
	w.computeRank()
	w.sh.best.offer(ev, w.rankBuf)
}

// digitFloor is the lowest admissible digit at visit position i under the
// dominance constraint (non-decreasing within a symmetry group).
func (w *bnbWalker) digitFloor(i int) int {
	if p := w.sh.prevInGroup[i]; p >= 0 {
		return int(w.digits[p])
	}
	return 0
}

// rec walks visit positions [i, n) depth-first. storeAcc/timeAcc carry the
// running storage cost and elapsed time of the base plus every assigned
// unit (meaningless when not bounding). The innermost position chains
// siblings through one-move delta evaluation.
func (w *bnbWalker) rec(i int, storeAcc float64, timeAcc time.Duration) error {
	sh := w.sh
	u := sh.order[i]
	obj := sh.sp.Free[u]
	defer w.scratch.Unset(obj)
	var row []time.Duration
	var size float64
	if sh.bounding {
		row = sh.timeRow(u)
		size = sh.sp.SizeGB[sh.densePos[u]]
	}
	if i == sh.n-1 {
		// Innermost: siblings differ by one move; the first evaluated sibling
		// of the group is hashed, totalled and estimated in full (levels above
		// changed since the last evaluation), the rest are O(1) steps of the
		// chain cursor from their predecessor. A pruned sibling is never
		// written to scratch.
		w.prevOK = false
		for ci := w.digitFloor(i); ci < sh.m; ci++ {
			c := sh.sp.Digits[ci]
			w.digits[i] = uint8(ci)
			if sh.bounding && sh.prune(storeAcc+sh.prices[ci]*size+sh.minStore[i+1], timeAcc+row[ci]+sh.minTime[i+1]) {
				w.stats.BoundPruned++
				continue
			}
			var ev Eval
			var err error
			if w.prevOK {
				from, _ := w.chain.At(obj) // the last evaluated sibling
				w.moves[0] = workload.ObjectMove{Obj: obj, From: from, To: c}
				if ev, err = w.chain.Try(w.moves[:]); err == nil {
					w.chain.Commit(ev)
				}
			} else {
				w.scratch.Set(obj, c)
				ev, err = w.chain.reseat()
			}
			if err != nil {
				w.computeRank()
				sh.fail(w.rankBuf, err)
				return errStopped
			}
			w.stats.Candidates++
			w.prevOK = true
			if ev.Feasible(sh.cons) {
				w.offer(ev)
			}
		}
		return nil
	}
	for ci := w.digitFloor(i); ci < sh.m; ci++ {
		w.scratch.Set(obj, sh.sp.Digits[ci])
		w.digits[i] = uint8(ci)
		sAcc, tAcc := storeAcc, timeAcc
		if sh.bounding {
			sAcc += sh.prices[ci] * size
			tAcc += row[ci]
			if sh.prune(sAcc+sh.minStore[i+1], tAcc+sh.minTime[i+1]) {
				w.stats.BoundPruned++
				continue
			}
		}
		if sh.stop.Load() {
			return errStopped
		}
		if err := w.rec(i+1, sAcc, tAcc); err != nil {
			return err
		}
	}
	return nil
}

// runTask replays a frontier prefix into the walker's scratch state and
// walks the subtree below it.
func (w *bnbWalker) runTask(prefix []uint8) error {
	sh := w.sh
	storeAcc, timeAcc := sh.baseStore, sh.baseTime
	for i, d := range prefix {
		u := sh.order[i]
		ci := int(d)
		w.scratch.Set(sh.sp.Free[u], sh.sp.Digits[ci])
		w.digits[i] = d
		if sh.bounding {
			storeAcc += sh.prices[ci] * sh.sp.SizeGB[sh.densePos[u]]
			timeAcc += sh.timeRow(u)[ci]
		}
	}
	if sh.bounding && sh.prune(storeAcc+sh.minStore[len(prefix)], timeAcc+sh.minTime[len(prefix)]) {
		// The whole claimed subtree is beaten by the incumbent.
		w.stats.BoundPruned++
		return nil
	}
	return w.rec(len(prefix), storeAcc, timeAcc)
}

// genFrontier enumerates the canonical prefixes of length d in visiting
// order — the parallel run's subtree tasks.
func genFrontier(sh *bnbShared, d int) [][]uint8 {
	var tasks [][]uint8
	digits := make([]uint8, d)
	var rec func(i int)
	rec = func(i int) {
		if i == d {
			tasks = append(tasks, append([]uint8(nil), digits...))
			return
		}
		lo := 0
		if p := sh.prevInGroup[i]; p >= 0 {
			lo = int(digits[p])
		}
		for c := lo; c < sh.m; c++ {
			digits[i] = uint8(c)
			rec(i + 1)
		}
	}
	rec(0)
	return tasks
}

// errStopped unwinds a walk once the search has stopped.
var errStopped = errors.New("search: enumeration stopped")

// ExhaustiveBnB enumerates the space with branch-and-bound and returns the
// feasible evaluation with the minimum TOC, ties to the lowest canonical
// rank — the layout a sequential odometer walk's lowest-index rule would
// report, bit for bit — plus the enumeration's statistics. The bound and
// the dominance collapse only ever discard candidates that provably
// cannot change the result; see bound.go and dominance.go for the
// admissibility and canonicity arguments.
func (e *Engine) ExhaustiveBnB(cons workload.Constraints, sp BnBSpace) (Eval, bool, EnumStats, error) {
	var stats EnumStats
	if len(sp.Digits) == 0 {
		return Eval{}, false, stats, fmt.Errorf("search: exhaustive space has no classes")
	}
	n, m := len(sp.Free), len(sp.Digits)
	if sp.Bounds != nil && (sp.SizeGB == nil || len(sp.Bounds.Time) != n*m) {
		return Eval{}, false, stats, fmt.Errorf("search: BnBSpace.Bounds requires SizeGB and a %dx%d time table", n, m)
	}
	if sp.Sigs != nil && len(sp.Sigs) != n {
		return Eval{}, false, stats, fmt.Errorf("search: BnBSpace.Sigs must cover every free unit")
	}

	scratch := sp.Base.Clone()
	if scratch.IsZero() {
		scratch = catalog.NewCompactLayout(e.cfg.Cat.NumObjects())
	}
	for _, id := range sp.Free {
		scratch.Unset(id)
	}

	sh := &bnbShared{
		e: e, cons: cons, sp: &sp, n: n, m: m,
		best:     newBnBIncumbent(),
		bounding: sp.Bounds != nil,
	}
	sh.densePos = make([]int, n)
	for i, id := range sp.Free {
		sh.densePos[i] = denseOf(id)
	}
	for ci, c := range sp.Digits {
		sh.clsIdx[byte(c)] = uint8(ci)
	}

	// Dominance groups.
	rep := make([]int, n)
	for i := range rep {
		rep[i] = i
	}
	if sp.Sigs != nil {
		rep, stats.Groups, stats.GroupedUnits = groupUnits(sp.Sigs)
	}
	stats.SpaceSize = math.Pow(float64(m), float64(n))
	stats.CanonicalSize = collapsedSize(rep, m)

	if n == 0 {
		ev, err := e.EvaluateCompact(scratch)
		if err != nil {
			return Eval{}, false, stats, err
		}
		stats.Candidates = 1
		if ev.Feasible(cons) {
			return ev, true, stats, nil
		}
		return Eval{}, false, stats, nil
	}

	// Bounding state: base accumulators, per-unit floors, expansion order.
	var impact []float64
	if sh.bounding {
		sh.prices = digitPrices(&sp.PriceCents, sp.Digits)
		for i := 0; i < scratch.Len(); i++ {
			if set, ok := scratch.At(i); ok {
				sh.baseStore += digitPriceCents(&sp.PriceCents, set) * sp.SizeGB[i]
			}
		}
		sh.baseTime = sp.Bounds.Fixed
		// Whole-space floors (order-independent) anchor the spread heuristic.
		sFloor, tFloor := sh.baseStore, sh.baseTime
		for u := 0; u < n; u++ {
			row := sp.Bounds.unitTimeRow(u, m)
			sz := sp.SizeGB[sh.densePos[u]]
			s := sh.prices[0] * sz
			for _, p := range sh.prices[1:] {
				if v := p * sz; v < s {
					s = v
				}
			}
			sFloor += s
			tFloor += minOver(row)
		}
		impact = make([]float64, n)
		for u := 0; u < n; u++ {
			impact[u] = spread(sp.Bounds.unitTimeRow(u, m), sp.SizeGB[sh.densePos[u]], sh.prices, sFloor, tFloor)
		}
	}

	// Visiting order: descending original position by default — which
	// already realises each group's canonical (descending-position,
	// non-decreasing-digit) form — or descending spread when bounding, with
	// ties broken (group, then descending position) to keep groups
	// contiguous and canonical.
	sh.order = make([]int, n)
	for i := range sh.order {
		sh.order[i] = n - 1 - i
	}
	if sh.bounding {
		sortOrder(sh.order, func(a, b int) bool {
			if impact[a] != impact[b] {
				return impact[a] > impact[b]
			}
			if rep[a] != rep[b] {
				return rep[a] < rep[b]
			}
			return a > b
		})
	}
	sh.prevInGroup = make([]int, n)
	lastSeen := make([]int, n)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	for i, u := range sh.order {
		r := rep[u]
		sh.prevInGroup[i] = lastSeen[r]
		lastSeen[r] = i
	}
	if sh.bounding {
		sh.minStore, sh.minTime = suffixFloors(&sp, sh.order, sh.prices)
		stats.RootFloorCents = (sh.baseStore + sh.minStore[0]) * (sh.baseTime + sh.minTime[0]).Hours()
	}

	// One walker over the whole tree, or — with workers to spare — the tree
	// split into subtree tasks at the shallowest depth that gives every
	// worker several to claim.
	workers, tasks := 1, [][]uint8{nil}
	if e.Workers() >= 2 && n >= 2 {
		workers = e.Workers()
		depth := 1
		tasks = genFrontier(sh, depth)
		for depth < n-1 && len(tasks) < workers*8 && len(tasks)*m <= maxFrontier {
			depth++
			tasks = genFrontier(sh, depth)
		}
		stats.SplitDepth = depth
		stats.FrontierTasks = len(tasks)
	}

	// The frontier is generated up front and never grows, so one atomic
	// cursor over it is the whole scheduler: walkers claim subtrees in
	// frontier order — the sequential walk's order, which is what finds
	// good incumbents early — until the slice or the search runs out. A
	// walker's failure is recorded in sh by rank, so the fan-out's own
	// error is always nil.
	var next atomic.Int64
	walkers := make([]*bnbWalker, workers)
	for k := range walkers {
		cl := scratch.Clone()
		walkers[k] = &bnbWalker{sh: sh, scratch: cl, chain: &Cursor{e: e, scratch: cl}, digits: make([]uint8, n), rankBuf: make([]byte, n)}
	}
	Parallel(workers, workers, func(k int) error {
		for !sh.stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(tasks) || walkers[k].runTask(tasks[i]) != nil {
				break
			}
		}
		return nil
	})
	if sh.err != nil {
		return Eval{}, false, stats, sh.err
	}
	for _, w := range walkers {
		stats.add(w.stats)
	}
	ev, ok := sh.best.get()
	return ev, ok, stats, nil
}

// sortOrder sorts the visiting order with an insertion sort — n is small
// relative to the space it controls, and avoiding sort.Slice keeps the
// comparator allocation off the setup path.
func sortOrder(order []int, less func(a, b int) bool) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}
