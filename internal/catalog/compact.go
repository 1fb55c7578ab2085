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
// the catalog's dense range, or an invalid set — in which case callers must
// stay on the map path.
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
// engine's memo arena.
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

// maskBits sizes the per-class accumulators of spaceDense by the mask
// byte's width rather than device.NumClasses, so a byte naming an undefined
// class surfaces as "class not present in box" instead of indexing out of
// range.
const maskBits = 8

// spaceDense accumulates S_j (bytes per class) and per-class usage flags
// over a dense size table: every member class of a unit's set is charged
// the unit's full size. A class is "used" as soon as any object — including
// a zero-sized one — holds a copy on it, mirroring the map form's
// SpaceByClass key set.
//
// This walk is the search's hot loop (profiles of a 500-unit advise put it
// above 40% of the search), so sizes are first summed per distinct mask —
// one indexed add per slot, what a class-byte table costs — and each mask
// seen (three on a three-class single-copy search) is then charged to its
// members. Integer sums regroup exactly, so the totals are those of the
// slot-by-slot definition.
func (cl CompactLayout) spaceDense(sizes []int64) (space [maskBits]int64, used [maskBits]bool) {
	var byMask [device.NumClassSets]int64
	var seen uint32
	sized := cl.b[:min(len(cl.b), len(sizes))]
	for i, v := range sized {
		if v < device.NumClassSets {
			seen |= 1 << v
			byMask[v] += sizes[i]
		} else if v != slotUnset {
			used[bits.Len8(v)-1] = true // names an undefined class
		}
	}
	for _, v := range cl.b[len(sized):] {
		if v < device.NumClassSets {
			seen |= 1 << v
		} else if v != slotUnset {
			used[bits.Len8(v)-1] = true
		}
	}
	for seen &^= 1; seen != 0; seen &= seen - 1 { // the empty set holds no copy
		v := bits.TrailingZeros32(seen)
		for m := uint8(v); m != 0; m &= m - 1 {
			c := bits.TrailingZeros8(m)
			space[c] += byMask[v]
			used[c] = true
		}
	}
	return space, used
}

// PriceDense computes the linear layout cost C(L) in cents/hour and the
// capacity verdict over a dense size table, in one walk of the layout (see
// SetLayout.CostCentsPerHour and CheckCapacity, the map-form references).
// Classes are summed in ascending order — the same order as the map forms —
// so the paths produce bit-identical floats. A copy on a class the box does
// not carry is an error (and does not fit). The verdict comes without a
// diagnostic: the search only needs the bit, and over-capacity candidates
// are common enough that building a discarded error per candidate shows up
// in profiles.
func (cl CompactLayout) PriceDense(sizes []int64, box *device.Box) (cost float64, fits bool, err error) {
	space, used := cl.spaceDense(sizes)
	fits = true
	for c := range used {
		if !used[c] {
			continue
		}
		d := box.Device(device.Class(c))
		if d == nil {
			return 0, false, fmt.Errorf("catalog: layout uses class %v not present in box %q", device.Class(c), box.Name)
		}
		cost += d.PriceCents * float64(space[c]) / 1e9
		fits = fits && space[c] < d.CapacityBytes
	}
	return cost, fits, nil
}
