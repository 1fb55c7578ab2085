package search

import (
	"time"

	"dotprov/internal/device"
)

// UnitBounds carries the per-unit data the branch-and-bound enumeration
// derives its admissible bound from: for every free unit, its exact
// additive contribution to the workload's elapsed time on each candidate
// digit (compiled-table rows summed over queries), plus the
// layout-independent remainder. Together with the space's per-unit sizes
// and per-class prices this yields, at any partial assignment, a floor on
// the TOC of every completion:
//
//	TOC(L) = C(L) x t(L).Hours()
//	C(L)  >= storeAcc + sum over unassigned u of min over digits d of price[d]*size[u]
//	t(L)  >= timeAcc  + sum over unassigned u of min over digits d of Time[u][d]
//
// Both factors are positive, so the product of the floors bounds the
// product. A digit's price (the sum of its member classes' prices, every
// copy charged its full size) and its time entry are exact, not floors, so
// the minima stay admissible whatever the digit alphabet. The per-unit
// minima are suffix-summed over the DFS's visiting order once per search,
// making each bound check O(1).
type UnitBounds struct {
	// Time holds, per free unit (indexed like BnBSpace.Free) and per digit
	// (indexed like BnBSpace.Digits), the unit's elapsed-time contribution
	// when placed on that class set.
	Time []time.Duration
	// Fixed is the layout-independent elapsed remainder: CPU plus the
	// contribution of every pinned (base-assigned) object.
	Fixed time.Duration
}

// boundSlack is the relative safety margin applied before pruning: a
// subtree is cut only when floor*(1-boundSlack) still exceeds the
// incumbent. The elapsed-time floor is exact (integer sums), but the
// storage floor accumulates floats in assignment order while the true cost
// model sums per class in ascending class order; reassociation can move
// the result by a few ulps (relative error ~n*2^-52, well under 1e-12 for
// any enumerable space). The margin makes the float floor admissible
// again, at the cost of occasionally evaluating a candidate the exact
// bound would have cut — never the other way around.
const boundSlack = 1e-12

// unitTimeRow returns unit i's per-class time row.
func (ub *UnitBounds) unitTimeRow(i, classes int) []time.Duration {
	return ub.Time[i*classes : (i+1)*classes]
}

// minTime returns the fastest class's time for visit-ordered unit rows.
func minOver(row []time.Duration) time.Duration {
	best := row[0]
	for _, t := range row[1:] {
		if t < best {
			best = t
		}
	}
	return best
}

// spread is the unit's cost spread, the best-first ordering key: an
// approximate measure of how much the TOC can swing on this unit's
// decision. With per-class storage cost s_c = price[c]*size and time t_c,
// the exact swing of the (cost x time) product depends on the rest of the
// layout; the heuristic scores max over classes of
//
//	S*(t_c - tmin) + T*(s_c - smin) + (s_c - smin)*(t_c - tmin)
//
// with S and T the whole space's storage and time floors — the product's
// first-order expansion around the floor point. Units with large spreads
// bind early, so the bound cuts deep; the ordering never affects which
// layout wins, only how fast losers are discarded.
func spread(row []time.Duration, sizeGB float64, prices []float64, sFloor float64, tFloor time.Duration) float64 {
	tmin := minOver(row)
	smin := prices[0] * sizeGB
	for _, p := range prices[1:] {
		if s := p * sizeGB; s < smin {
			smin = s
		}
	}
	var best float64
	for c, t := range row {
		dt := (t - tmin).Hours()
		ds := prices[c]*sizeGB - smin
		v := sFloor*dt + tFloor.Hours()*ds + ds*dt
		if v > best {
			best = v
		}
	}
	return best
}

// suffixFloors precomputes, for a visiting order over the free units, the
// suffix sums of the per-unit minima: minStore[i] (and minTime[i]) is the
// least possible storage cost (elapsed time) of units order[i:]. Entry
// [len(order)] is zero, so a leaf's floor is just the accumulators.
func suffixFloors(sp *BnBSpace, order []int, prices []float64) (minStore []float64, minTime []time.Duration) {
	n := len(order)
	m := len(sp.Digits)
	minStore = make([]float64, n+1)
	minTime = make([]time.Duration, n+1)
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		row := sp.Bounds.unitTimeRow(u, m)
		sz := sp.SizeGB[denseOf(sp.Free[u])]
		s := prices[0] * sz
		for _, p := range prices[1:] {
			if v := p * sz; v < s {
				s = v
			}
		}
		minStore[i] = minStore[i+1] + s
		minTime[i] = minTime[i+1] + minOver(row)
	}
	return minStore, minTime
}

// digitPrices resolves an alphabet's per-digit storage prices.
func digitPrices(classCents *[device.NumClasses]float64, digits []device.ClassSet) []float64 {
	out := make([]float64, len(digits))
	for i, set := range digits {
		out[i] = digitPriceCents(classCents, set)
	}
	return out
}

// digitPriceCents resolves one placement's storage price: the sum of the
// set's member-class prices in ascending class order, since every copy is
// charged its full size. For a singleton the sum is 0+p, which is p exactly,
// so single-copy search accumulates the very floats a per-class table
// would.
func digitPriceCents(classCents *[device.NumClasses]float64, set device.ClassSet) float64 {
	var sum float64
	for c := 0; c < device.NumClasses; c++ {
		if set.Has(device.Class(c)) {
			sum += classCents[c]
		}
	}
	return sum
}
