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
// This walk runs twice per candidate on the search hot path (profiles of a
// 500-unit advise put it above 40% of the search), so a slot's first member
// — its only one in single-copy search — costs one indexed add, further
// copies loop, and the usage flags are derived afterwards from the few
// distinct masks seen rather than stored per slot.
func (cl CompactLayout) spaceDense(sizes []int64) (space [maskBits]int64, used [maskBits]bool) {
	var seen uint32
	for i, v := range cl.b {
		if v-1 >= device.NumClassSets-1 { // unset, empty, or naming an undefined class
			if v != slotUnset && v != 0 {
				used[bits.Len8(v)-1] = true
			}
			continue
		}
		seen |= 1 << v
		if i >= len(sizes) {
			continue
		}
		space[bits.TrailingZeros8(v)] += sizes[i]
		for m := v & (v - 1); m != 0; m &= m - 1 {
			space[bits.TrailingZeros8(m)] += sizes[i]
		}
	}
	for ; seen != 0; seen &= seen - 1 {
		for m := uint8(bits.TrailingZeros32(seen)); m != 0; m &= m - 1 {
			used[bits.TrailingZeros8(m)] = true
		}
	}
	return space, used
}

// CostCentsPerHourDense computes the linear layout cost C(L) over a dense
// size table (see SetLayout.CostCentsPerHour). Classes are summed in
// ascending order — the same order as the map forms — so the paths produce
// bit-identical floats.
func (cl CompactLayout) CostCentsPerHourDense(sizes []int64, box *device.Box) (float64, error) {
	space, used := cl.spaceDense(sizes)
	var cost float64
	for c := range used {
		if !used[c] {
			continue
		}
		d := box.Device(device.Class(c))
		if d == nil {
			return 0, fmt.Errorf("catalog: layout uses class %v not present in box %q", device.Class(c), box.Name)
		}
		cost += d.PriceCents * float64(space[c]) / 1e9
	}
	return cost, nil
}

// FitsCapacityDense reports whether the layout satisfies the capacity
// constraints over a dense size table (see SetLayout.CheckCapacity). It
// returns the verdict without a diagnostic error — the search hot path only
// needs the verdict, and over-capacity candidates are common enough that
// building a discarded error per candidate shows up in profiles.
func (cl CompactLayout) FitsCapacityDense(sizes []int64, box *device.Box) bool {
	space, used := cl.spaceDense(sizes)
	for c := range used {
		if !used[c] {
			continue
		}
		d := box.Device(device.Class(c))
		if d == nil || space[c] >= d.CapacityBytes {
			return false
		}
	}
	return true
}
