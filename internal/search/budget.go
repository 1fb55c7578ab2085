package search

import "sync/atomic"

// Budget is a worker budget shared across engines. A provisioning sweep
// (paper §5) runs one inner layout search per candidate configuration; each
// search owns an Engine, but the machine only has so many cores. Passing one
// Budget to every engine's Config bounds the number of concurrent estimator
// invocations across ALL of them at the budget's width, no matter how many
// candidates are in flight — the property that keeps one tenant's re-advise
// storm from starving the rest of a multi-tenant fleet.
//
// Admission is one atomic word that is both the gate and the gauge: the
// number of slots in use and, above it, the number of callers parked for
// one. A caller takes a free slot with a single compare-and-swap, no lock
// and no channel operation; only when every slot is taken does it park,
// until a caller giving a slot back wakes it to try again.
//
// A Budget is safe for concurrent use. The zero value is not usable; call
// NewBudget.
type Budget struct {
	_ [cacheLine - 8]byte
	// state holds the slots in use in its low 32 bits and the parked
	// callers above them. It sits on a cache line of its own: every
	// admission writes it, and nothing else here changes after NewBudget
	// but the high-water mark, which moves at most Workers times.
	state atomic.Uint64
	_     [cacheLine - 8]byte
	// high is the lifetime high-water mark of the slots in use, so tests
	// (and operators) can assert the cap was never exceeded rather than
	// trusting it was.
	high    atomic.Int64
	workers int
	// wake carries one wakeup to one parked caller; Exit sends one for
	// every caller it takes off the parked count. It is buffered to the
	// width so that the up to Workers holders exiting at once need not wait
	// for the callers they wake to be scheduled.
	wake chan struct{}
}

const (
	cacheLine = 64
	// parked is one parked caller in Budget.state.
	parked    = 1 << 32
	inUseMask = parked - 1
)

// NewBudget returns a budget of the given width. Widths below 2 select the
// sequential path: engines sharing the budget evaluate on their calling
// goroutines only, and the budget counts their estimator invocations
// without gating them.
func NewBudget(workers int) *Budget {
	if workers < 1 {
		workers = 1
	}
	return &Budget{workers: workers, wake: make(chan struct{}, workers)}
}

// Workers returns the budget's width.
func (b *Budget) Workers() int { return b.workers }

// Enter takes one slot of the budget for an estimator invocation, waiting
// while all Workers() of them are taken (widths below 2 count the call and
// never wait), and keeps the high-water mark. Every Enter must be paired
// with one Exit. A caller must not Enter while it holds a slot, of this
// budget or another: a slot is never held while blocked on another, which
// is what keeps engines that share a budget — or wait on one another's
// memo entries — from deadlocking.
func (b *Budget) Enter() {
	for {
		v := b.state.Load()
		if n := int(v & inUseMask); n < b.workers || b.workers < 2 {
			if b.state.CompareAndSwap(v, v+1) {
				b.noteHigh(int64(n + 1))
				return
			}
			continue
		}
		// Every slot is taken. Registering is a compare-and-swap against
		// that full count, so no Exit can give a slot back between the
		// check and the registration: every Exit after it sees a caller
		// parked and wakes one. A woken caller checks the count again —
		// a running caller may have taken the slot first.
		if b.state.CompareAndSwap(v, v+parked) {
			<-b.wake
		}
	}
}

// Exit gives back the slot of one Enter and, when callers are parked,
// takes one of them off the parked count and wakes it. Concurrent Exits
// that all see parked callers wake no more of them than there are.
func (b *Budget) Exit() {
	v := b.state.Add(^uint64(0))
	for v >= parked {
		if b.state.CompareAndSwap(v, v-parked) {
			b.wake <- struct{}{}
			return
		}
		v = b.state.Load()
	}
}

// noteHigh raises the high-water mark to n.
func (b *Budget) noteHigh(n int64) {
	for {
		h := b.high.Load()
		if n <= h || b.high.CompareAndSwap(h, n) {
			return
		}
	}
}

// InUse returns the number of estimator invocations currently charged.
func (b *Budget) InUse() int { return int(b.state.Load() & inUseMask) }

// HighWater returns the lifetime peak of concurrently charged estimator
// invocations. For budgets of width >= 2 it can never exceed Workers() —
// every engine sharing the budget is admitted through it; width-1 budgets
// take the sequential path (each engine evaluates on its calling
// goroutine), so concurrent CALLERS may still overlap there.
func (b *Budget) HighWater() int { return int(b.high.Load()) }
