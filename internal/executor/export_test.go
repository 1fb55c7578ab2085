package executor

import (
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

// SpareValues counts the values st's spare chunks still hold, up to their
// capacity: a released build side's must all have been cleared.
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
	}
	return n
}
