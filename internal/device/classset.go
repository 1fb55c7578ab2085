package device

import (
	"math/bits"
	"strings"
	"time"
)

// ClassSet is a set of storage classes encoded as a bitmask: bit c is set
// when class c is a member. It is the placement value of the layout search
// — each placement unit maps to the set of classes holding a copy — and
// fits one byte because NumClasses <= 8, which is the byte a
// catalog.CompactLayout stores per unit.
//
// The empty set is not a valid placement (every unit needs at least one
// copy); singleton sets are exactly the paper's single-class placements
// L: O -> D, so single-copy search is the search over singleton sets.
type ClassSet uint8

// NumClassSets sizes dense per-(unit, class-set) tables: class-set masks
// are dense in [0, NumClassSets), with mask 0 (the empty set) permanently
// invalid.
const NumClassSets = 1 << NumClasses

// Singleton returns the one-class set {c}.
func Singleton(c Class) ClassSet { return ClassSet(1) << c }

// NewClassSet builds a set from member classes.
func NewClassSet(classes ...Class) ClassSet {
	var s ClassSet
	for _, c := range classes {
		s |= Singleton(c)
	}
	return s
}

// Has reports whether c is a member.
func (s ClassSet) Has(c Class) bool { return s&Singleton(c) != 0 }

// Add returns the set with c added.
func (s ClassSet) Add(c Class) ClassSet { return s | Singleton(c) }

// Remove returns the set with c removed.
func (s ClassSet) Remove(c Class) ClassSet { return s &^ Singleton(c) }

// Count returns the number of member classes (the replica count).
func (s ClassSet) Count() int { return bits.OnesCount8(uint8(s)) }

// Valid reports whether the set is a usable placement: non-empty, with
// every member a defined storage class.
func (s ClassSet) Valid() bool {
	return s != 0 && uint8(s) < (1<<uint(NumClasses))
}

// IsSingleton reports whether the set holds exactly one class.
func (s ClassSet) IsSingleton() bool { return s != 0 && s&(s-1) == 0 }

// Single returns the set's only member. ok=false when the set is empty or
// holds more than one class.
func (s ClassSet) Single() (Class, bool) {
	if !s.IsSingleton() {
		return 0, false
	}
	return Class(bits.TrailingZeros8(uint8(s))), true
}

// Route returns the members an I/O of type t on a unit held by s is
// charged to — the one replica routing rule every pricer of a class set
// shares. A write is charged to every member, since each copy must be kept
// current. A read is charged to the one member fastest at t under svc,
// ties to the lower class; svc is asked about members only.
func (s ClassSet) Route(t IOType, svc func(Class) time.Duration) ClassSet {
	if !t.IsRead() {
		return s
	}
	var fastest ClassSet
	var best time.Duration
	for c := Class(0); int(c) < NumClasses; c++ {
		if !s.Has(c) {
			continue
		}
		if st := svc(c); fastest == 0 || st < best {
			fastest, best = Singleton(c), st
		}
	}
	return fastest
}

// Classes returns the members in ascending class order.
func (s ClassSet) Classes() []Class {
	out := make([]Class, 0, s.Count())
	for c := Class(0); int(c) < NumClasses; c++ {
		if s.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// String renders the set as "{HDD, H-SSD}" in ascending class order.
func (s ClassSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for c := Class(0); int(c) < NumClasses; c++ {
		if !s.Has(c) {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(c.String())
	}
	b.WriteByte('}')
	return b.String()
}

// EnumerateClassSets lists every non-empty subset of the given classes with
// at most maxReplicas members, in ascending mask order. Ascending mask
// order makes singleton sets appear in ascending class order (mask 1<<c
// grows with c), so a maxReplicas=1 enumeration visits exactly the classes,
// in class order — the alphabet of single-copy search. maxReplicas < 1
// means no cap.
func EnumerateClassSets(classes []Class, maxReplicas int) []ClassSet {
	var avail ClassSet
	for _, c := range classes {
		avail = avail.Add(c)
	}
	var out []ClassSet
	for m := ClassSet(1); int(m) < NumClassSets; m++ {
		if m&^avail != 0 {
			continue
		}
		if maxReplicas >= 1 && m.Count() > maxReplicas {
			continue
		}
		out = append(out, m)
	}
	return out
}
