package executor

import (
	"sync/atomic"
	"testing"

	"dotprov/internal/iosim"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// Poison is what RunPoisoned leaves in every position of a lent tuple.
var Poison = types.NewString("poisoned: kept past emit without a copy")

// RunPoisoned executes root into consume under the borrowed-tuple checker:
// every emit in the tree — the operators' and consume itself — is wrapped
// so that the tuple it was lent is overwritten the moment it returns. A
// consumer that honours the contract (copies what it keeps) cannot tell;
// one that retains a lent tuple finds Poison in it.
func RunPoisoned(st Storage, acct *iosim.Accountant, root plan.Node, consume func(types.Tuple) bool) error {
	e := &exec{st: st, acct: acct}
	e.wrap = func(emit func(types.Tuple) bool) func(types.Tuple) bool {
		return func(t types.Tuple) bool {
			more := emit(t)
			for i := range t {
				t[i] = Poison
			}
			return more
		}
	}
	return e.run(root, nil, consume)
}

// SpareValues counts the values and string keys st's spare chunks still
// hold, up to their capacity: a released build side's must all have been
// cleared.
func SpareValues(st Storage) int {
	s := st.Spare()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.chunks {
		for _, v := range c.vals[:cap(c.vals)] {
			if v != (types.Value{}) {
				n++
			}
		}
		for _, k := range c.strs {
			if k != "" {
				n++
			}
		}
	}
	return n
}

// ChunkRows is how many build rows one chunk of a hash join holds.
const ChunkRows = chunkRows

// CountExecutions counts, until t ends, the plans Run executes, and returns
// a function that reads the count.
func CountExecutions(t testing.TB) func() int {
	var n atomic.Int64
	executing = func() { n.Add(1) }
	t.Cleanup(func() { executing = nil })
	return func() int { return int(n.Load()) }
}

// MemoSize reports how many plans st's memo holds and the bytes it counts
// for them.
func MemoSize(st Storage) (plans int, bytes int64) {
	m := st.Traces()
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.plans), m.bytes
}
