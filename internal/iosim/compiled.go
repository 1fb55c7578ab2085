package iosim

import (
	"fmt"
	"sort"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
)

// CompiledProfile is a Profile compiled against one (box, concurrency)
// pair for a digit alphabet — the class sets a search may place a unit on:
// a dense per-(object, digit) table of the object's total I/O time on that
// set, reads charged to the set's best member per I/O type and writes to
// every member (each copy must be kept current). IOTime over a compact
// layout becomes a flat array sum, and DeltaIOTime re-costs a one-object
// change in O(1) — the building blocks of the search engine's
// allocation-free evaluation path. Columns are sized to the alphabet (three
// singletons on a three-class box, six digits at a two-copy cap), not to
// the 32 possible masks.
//
// The table is a pure function of data frozen at compile time, so a
// CompiledProfile is safe for concurrent use. Every entry is the same
// integer sum of per-type terms over the members device.ClassSet.Route
// picks that the map-form Profile.SetIOTime and Profile.IOTime accumulate,
// so all three return bit-identical durations; what the table adds is its
// indexing and DeltaIOTime's arithmetic, which the map form checks.
type CompiledProfile struct {
	boxName string
	// objs lists the profiled ObjectIDs in ascending order; rows holds their
	// per-digit time subtotals, row k at rows[k*cols:].
	objs []catalog.ObjectID
	rows []time.Duration
	cols int
	// rowOf maps DenseIndex(id) -> row index, -1 for unprofiled objects.
	// Profiled IDs beyond the table (foreign to the catalog) are handled by
	// the placement check, which fails before any row lookup.
	rowOf []int32
	// col maps a placement byte to its column, -1 for sets outside the
	// alphabet (including every set with a member the box does not carry):
	// placing a profiled object there is an error, exactly as on the map
	// path. It spans every byte value, so the hot lookups index it without
	// a range check.
	col [256]int8
}

// SingletonAlphabet returns the digit alphabet of single-copy placement on
// a box: one singleton set per class, in ascending class order.
func SingletonAlphabet(box *device.Box) []device.ClassSet {
	return device.EnumerateClassSets(box.Classes(), 1)
}

// CompileProfile builds the dense table for the given alphabet. n is the
// catalog's object count (catalog.Catalog.NumObjects); profiled objects
// outside [1, n] are kept — they surface the same "not placed by layout"
// error the map path reports. Alphabet digits that are not valid sets over
// the box's classes are dropped (they stay errors at evaluation time).
func CompileProfile(p Profile, box *device.Box, concurrency, n int, alphabet []device.ClassSet) *CompiledProfile {
	cp := &CompiledProfile{
		boxName: box.Name,
		objs:    make([]catalog.ObjectID, 0, len(p)),
		rowOf:   make([]int32, n),
	}
	for i := range cp.rowOf {
		cp.rowOf[i] = -1
	}
	for id := range p {
		cp.objs = append(cp.objs, id)
	}
	sort.Slice(cp.objs, func(i, j int) bool { return cp.objs[i] < cp.objs[j] })
	svc, avail := box.ServiceTimes(concurrency), box.Carried()
	for i := range cp.col {
		cp.col[i] = -1
	}
	digits := make([]device.ClassSet, 0, len(alphabet))
	for _, set := range alphabet {
		if set.Valid() && set&^avail == 0 && cp.col[set] < 0 {
			cp.col[set] = int8(len(digits))
			digits = append(digits, set)
		}
	}
	cp.cols = len(digits)
	cp.rows = make([]time.Duration, len(cp.objs)*cp.cols)
	for k, id := range cp.objs {
		v := p[id]
		row := cp.rows[k*cp.cols : (k+1)*cp.cols]
		for j, set := range digits {
			row[j] = setIOTime(v, set, &svc)
		}
		if i := catalog.DenseIndex(id); i >= 0 && i < len(cp.rowOf) {
			cp.rowOf[i] = int32(k)
		}
	}
	return cp
}

// setIOTime prices one object's I/O vector on a class set from resolved
// per-class service times — the arithmetic of every compiled table entry
// and of every object's term in Profile.SetIOTime and Profile.IOTime:
// each I/O type's count times the service time of every member
// device.ClassSet.Route charges it to, members in ascending class order.
func setIOTime(v *IOVector, set device.ClassSet, svc *[device.NumClasses][device.NumIOTypes]time.Duration) time.Duration {
	var total time.Duration
	for _, t := range device.AllIOTypes {
		n := v[t]
		if n <= 0 {
			continue
		}
		to := set.Route(t, func(c device.Class) time.Duration { return svc[c][t] })
		for c := 0; c < device.NumClasses; c++ {
			if to.Has(device.Class(c)) {
				total += time.Duration(n * float64(svc[c][t]))
			}
		}
	}
	return total
}

// Covers reports whether every digit of the alphabet has a column — whether
// a search enumerating that alphabet can run on this compile.
func (cp *CompiledProfile) Covers(alphabet []device.ClassSet) bool {
	for _, set := range alphabet {
		if cp.column(set) < 0 {
			return false
		}
	}
	return true
}

// column resolves a placement byte to its table column, -1 when the set is
// outside the compiled alphabet.
func (cp *CompiledProfile) column(set device.ClassSet) int { return int(cp.col[set]) }

func (cp *CompiledProfile) unusable(id catalog.ObjectID, set device.ClassSet) error {
	return fmt.Errorf("iosim: layout places object %d on class set %v unusable for box %q", id, set, cp.boxName)
}

// IOTime computes the profile's accumulated I/O time under a compact
// layout: the compiled form of Profile.SetIOTime, with identical results
// and identical error cases (profiled object not placed; profiled object on
// a set the box cannot hold).
func (cp *CompiledProfile) IOTime(cl catalog.CompactLayout) (time.Duration, error) {
	var total time.Duration
	for k, id := range cp.objs {
		set, ok := cl.Get(id)
		if !ok {
			return 0, notPlaced(id)
		}
		j := cp.column(set)
		if j < 0 {
			return 0, cp.unusable(id, set)
		}
		total += cp.rows[k*cp.cols+j]
	}
	return total, nil
}

// DeltaIOTime returns the change in the profile's I/O time when object id
// moves from one class set to another. Unprofiled objects contribute
// nothing; a set outside the alphabet is an error, matching IOTime.
func (cp *CompiledProfile) DeltaIOTime(id catalog.ObjectID, from, to device.ClassSet) (time.Duration, error) {
	i := catalog.DenseIndex(id)
	if i < 0 || i >= len(cp.rowOf) || cp.rowOf[i] < 0 {
		return 0, nil
	}
	jf, jt := cp.column(from), cp.column(to)
	if jf < 0 {
		return 0, cp.unusable(id, from)
	}
	if jt < 0 {
		return 0, cp.unusable(id, to)
	}
	row := cp.rows[int(cp.rowOf[i])*cp.cols:]
	return row[jt] - row[jf], nil
}

// AccumulateTimes adds every profiled object's time on each digit of the
// given alphabet into a dense table indexed by
// DenseIndex(id)*len(alphabet) + position. It is the branch-and-bound
// search's raw material: summing several queries' compiled profiles into
// one table yields, per (unit, digit), the unit's exact contribution to the
// workload's elapsed time, from which per-unit minima (the admissible
// bound) and spreads (the expansion order) derive. Digits without a column
// and profiled objects outside the table's dense range are skipped — any
// layout using them fails placement checks before a bound is ever
// consulted.
func (cp *CompiledProfile) AccumulateTimes(table []time.Duration, alphabet []device.ClassSet) {
	m := len(alphabet)
	for k, id := range cp.objs {
		i := catalog.DenseIndex(id)
		if i < 0 || (i+1)*m > len(table) {
			continue
		}
		row := cp.rows[k*cp.cols : (k+1)*cp.cols]
		dst := table[i*m : (i+1)*m]
		for pos, set := range alphabet {
			if j := cp.column(set); j >= 0 {
				dst[pos] += row[j]
			}
		}
	}
}

// AppendRow appends object id's per-digit time row as fixed-width bytes
// (8 per column, big-endian) to dst and returns the extended slice.
// Unprofiled objects append an all-zero row — correct for symmetry
// detection, because an unprofiled object and a profiled object whose row
// is all zeros contribute identically (nothing) to every estimate. Two
// objects with equal appended rows are interchangeable under this profile:
// swapping their placements leaves the profile's IOTime unchanged for every
// layout over the compiled alphabet (integer sums reorder exactly).
func (cp *CompiledProfile) AppendRow(dst []byte, id catalog.ObjectID) []byte {
	var row []time.Duration
	if i := catalog.DenseIndex(id); i >= 0 && i < len(cp.rowOf) && cp.rowOf[i] >= 0 {
		k := int(cp.rowOf[i])
		row = cp.rows[k*cp.cols : (k+1)*cp.cols]
	}
	for j := 0; j < cp.cols; j++ {
		var v uint64
		if row != nil {
			v = uint64(row[j])
		}
		dst = append(dst,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return dst
}
