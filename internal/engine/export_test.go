package engine

import (
	"math"

	"dotprov/internal/pagestore"
	"dotprov/internal/types"
)

// PoisonLookups installs the borrowed-lookup checker on db: every LookupEq
// of every session overwrites the result the session lent before — its
// values and its RIDs — the moment it starts to reuse their storage. A
// caller that honours the contract (clones or copies out what it keeps
// past its next LookupEq) cannot tell; one that reads a replaced result
// finds the poison string and an out-of-range RID in it.
func PoisonLookups(db *DB) {
	poison := types.NewString("poisoned: LookupEq result kept past the next LookupEq")
	poisonRID := pagestore.RID{Page: math.MaxUint32, Slot: math.MaxUint16}
	db.lookupHook = func(s *Session) {
		for i := range s.vals {
			s.vals[i] = poison
		}
		for i := range s.rids {
			s.rids[i] = poisonRID
		}
	}
}
