package catalog

import (
	"bytes"
	"fmt"
	"math/bits"

	"dotprov/internal/device"
)

// slotUnset marks an object the compact layout does not place. It has bits
// outside [0, device.NumClassSets), so a compact key can never confuse
// "absent" with a real class set.
const slotUnset = 0xFF

// CompactLayout is the dense form of a SetLayout: one byte per catalog
// object, indexed by DenseIndex(id), holding the device.ClassSet mask of the
// classes with a copy (or the unset sentinel). A single-copy layout is the
// all-singleton case — there is no separate class-byte encoding, so one
// cost table, one memo and one search engine serve both.
//
// ObjectIDs are assigned densely by the catalog, so the slice covers the
// whole object set with no hashing, cloning is a flat memcpy, and the raw
// byte string is a canonical memo key — the compiled layout-search hot path
// is built on these three properties.
//
// Two CompactLayouts over the same catalog have equal Keys iff their map
// forms are Equal; conversion to and from the map form is lossless
// (including partial layouts, which keep the sentinel in unset slots).
type CompactLayout struct {
	b []byte
}

// DenseIndex maps an ObjectID to its slot in dense per-object tables. The
// catalog assigns IDs contiguously from 1, so slot = id-1.
func DenseIndex(id ObjectID) int { return int(id) - 1 }

// NumObjects returns the number of registered objects. ObjectIDs are dense
// in [1, NumObjects], so NumObjects also sizes dense per-object tables.
func (c *Catalog) NumObjects() int { return len(c.objects) }

// DenseSizeBytes snapshots every object's size into a dense table indexed
// by DenseIndex. The compiled cost model and capacity checks read this
// snapshot instead of chasing the catalog's maps per candidate.
func (c *Catalog) DenseSizeBytes() []int64 {
	out := make([]int64, len(c.objects))
	for id, o := range c.objects {
		if i := DenseIndex(id); i >= 0 && i < len(out) {
			out[i] = o.SizeBytes
		}
	}
	return out
}

// NewCompactLayout returns an empty compact layout with n object slots.
func NewCompactLayout(n int) CompactLayout {
	b := make([]byte, n)
	for i := range b {
		b[i] = slotUnset
	}
	return CompactLayout{b: b}
}

// CompactUniform places every object of the catalog on one class set.
func CompactUniform(c *Catalog, set device.ClassSet) CompactLayout {
	if !set.Valid() {
		panic(fmt.Sprintf("catalog: CompactUniform with invalid set %v", set))
	}
	b := make([]byte, c.NumObjects())
	for i := range b {
		b[i] = byte(set)
	}
	return CompactLayout{b: b}
}

// CompactFromSetLayout converts a map layout to the compact form. It
// reports ok=false when the layout cannot be encoded — an object ID outside
// the catalog's dense range, or an invalid set — which is then no layout
// the search can place, and callers refuse it.
func CompactFromSetLayout(c *Catalog, l SetLayout) (CompactLayout, bool) {
	cl := NewCompactLayout(c.NumObjects())
	for id, set := range l {
		i := DenseIndex(id)
		if i < 0 || i >= len(cl.b) || !set.Valid() {
			return CompactLayout{}, false
		}
		cl.b[i] = byte(set)
	}
	return cl, true
}

// CompactFromBytes wraps a raw mask-byte slice (as produced by Bytes)
// without copying. The caller transfers ownership: the slice must not be
// mutated afterwards. Intended for allocation-aware callers like the search
// engine's memo store.
func CompactFromBytes(b []byte) CompactLayout { return CompactLayout{b: b} }

// IsZero reports whether the layout is the zero value (no slots at all —
// distinct from a layout with slots that are all unset).
func (cl CompactLayout) IsZero() bool { return cl.b == nil }

// Len returns the number of object slots.
func (cl CompactLayout) Len() int { return len(cl.b) }

// Bytes exposes the raw mask bytes. Callers must treat the slice as
// read-only; it doubles as the memo key (see Key).
func (cl CompactLayout) Bytes() []byte { return cl.b }

// Get returns the placement of an object and whether it is placed.
func (cl CompactLayout) Get(id ObjectID) (device.ClassSet, bool) {
	return cl.At(DenseIndex(id))
}

// At is Get by dense slot index.
func (cl CompactLayout) At(i int) (device.ClassSet, bool) {
	if i < 0 || i >= len(cl.b) || cl.b[i] == slotUnset {
		return 0, false
	}
	return device.ClassSet(cl.b[i]), true
}

// Set places an object. The set must be a valid placement and the ID must
// be in the catalog's dense range; violations are programming errors and
// panic.
func (cl CompactLayout) Set(id ObjectID, set device.ClassSet) {
	if !set.Valid() {
		panic(fmt.Sprintf("catalog: CompactLayout.Set with invalid set %v", set))
	}
	cl.b[DenseIndex(id)] = byte(set)
}

// Unset removes an object's placement.
func (cl CompactLayout) Unset(id ObjectID) {
	cl.b[DenseIndex(id)] = slotUnset
}

// Clone returns an independent copy.
func (cl CompactLayout) Clone() CompactLayout {
	return CompactLayout{b: append([]byte(nil), cl.b...)}
}

// Key returns the canonical memo key: the raw mask bytes. It is one byte
// per object (the map form's Key is five), needs no sorting, and two
// layouts over the same catalog have equal keys iff their map forms are
// Equal. Allocation-sensitive callers probe maps with string(cl.Bytes())
// instead, which the compiler keeps off the heap.
func (cl CompactLayout) Key() string { return string(cl.b) }

// Equal reports whether two compact layouts place every slot identically.
func (cl CompactLayout) Equal(o CompactLayout) bool {
	return bytes.Equal(cl.b, o.b)
}

// ToSetLayout materializes the map form. Unset slots stay absent, so a
// CompactFromSetLayout/ToSetLayout round trip is lossless.
func (cl CompactLayout) ToSetLayout() SetLayout {
	out := make(SetLayout, len(cl.b))
	for i, v := range cl.b {
		if v != slotUnset {
			out[ObjectID(i+1)] = device.ClassSet(v)
		}
	}
	return out
}

// maskBits sizes the per-class accumulators of ClassSpace by the mask
// byte's width rather than device.NumClasses, so a byte naming an undefined
// class surfaces as "class not present in box" instead of indexing out of
// range.
const maskBits = 8

// ClassSpace is what a layout's price and capacity verdict depend on: S_j,
// the bytes each class holds (every member class of a unit's set is charged
// the unit's full size), and how many units hold a copy on each class. The
// holder count — not S_j > 0 — decides whether a class is used: a
// zero-sized unit still marks its class, mirroring the map form's
// SpaceByClass key set. A slot byte naming an undefined class (bits outside
// the class-set range) counts one holder at its highest bit and no bytes,
// so PriceLinear reports it as a class the box lacks.
//
// Both fields are integer sums over units, so they regroup exactly: Move
// keeps a running ClassSpace equal to Space of the mutated layout, which is
// how the search prices a candidate from its predecessor's totals in
// O(moves) instead of walking the layout.
type ClassSpace struct {
	Bytes   [maskBits]int64
	Holders [maskBits]int32
}

// charge adds n holders of size bytes each to the classes slot byte v names.
func (s *ClassSpace) charge(v byte, size int64, n int32) {
	switch {
	case v < device.NumClassSets:
		for m := v; m != 0; m &= m - 1 {
			c := bits.TrailingZeros8(m)
			s.Bytes[c] += size * int64(n)
			s.Holders[c] += n
		}
	case v != slotUnset:
		s.Holders[bits.Len8(v)-1] += n // names an undefined class
	}
}

// Move re-homes one unit of the given size from one slot value to another.
// A slot value is a class set, or — for a unit that holds no copy, so that
// placing and unplacing are moves too — the empty set or the raw byte of an
// unset slot.
func (s *ClassSpace) Move(size int64, from, to device.ClassSet) {
	s.charge(byte(from), size, -1)
	s.charge(byte(to), size, 1)
}

// Space totals the layout over a dense size table (slots beyond the table
// count as zero-sized). It is the reference walk: the search calls it once
// per seed evaluation and cursor and derives every candidate's totals from
// there with Move. Sizes are first summed per distinct mask — one indexed
// add per slot — and each mask seen is then charged to its members.
func (cl CompactLayout) Space(sizes []int64) ClassSpace {
	var s ClassSpace
	var byMask [device.NumClassSets]int64
	var holders [device.NumClassSets]int32
	sized := cl.b[:min(len(cl.b), len(sizes))]
	for i, v := range sized {
		if v < device.NumClassSets {
			holders[v]++
			byMask[v] += sizes[i]
		} else {
			s.charge(v, 0, 1)
		}
	}
	for _, v := range cl.b[len(sized):] {
		s.charge(v, 0, 1)
	}
	for v, n := range holders {
		if n == 0 {
			continue
		}
		for m := uint8(v); m != 0; m &= m - 1 {
			c := bits.TrailingZeros8(m)
			s.Bytes[c] += byMask[v]
			s.Holders[c] += n
		}
	}
	return s
}

// PriceLinear computes the linear layout cost C(L) in cents/hour and the
// capacity verdict from the per-class totals (see SetLayout.CostCentsPerHour
// and CheckCapacity, the map-form references). Classes are summed in
// ascending order — the same order as the map forms — so the paths produce
// bit-identical floats. A copy on a class the box does not carry is an
// error (and does not fit). The verdict comes without a diagnostic: the
// search only needs the bit, and over-capacity candidates are common enough
// that building a discarded error per candidate shows up in profiles.
func (s *ClassSpace) PriceLinear(box *device.Box) (cost float64, fits bool, err error) {
	fits = true
	for c, n := range s.Holders {
		if n == 0 {
			continue
		}
		d := box.Device(device.Class(c))
		if d == nil {
			return 0, false, fmt.Errorf("catalog: layout uses class %v not present in box %q", device.Class(c), box.Name)
		}
		cost += d.PriceCents * float64(s.Bytes[c]) / 1e9
		fits = fits && s.Bytes[c] < d.CapacityBytes
	}
	return cost, fits, nil
}

// PriceDense is Space followed by PriceLinear: the full-walk form, used by
// evaluations that have no predecessor to derive totals from and by the
// parity tests.
func (cl CompactLayout) PriceDense(sizes []int64, box *device.Box) (cost float64, fits bool, err error) {
	s := cl.Space(sizes)
	return s.PriceLinear(box)
}
