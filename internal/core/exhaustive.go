package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/search"
	"dotprov/internal/workload"
)

// MaxExhaustiveLayouts bounds the M^N enumeration. The paper estimates
// ~3500 hours for the full 16-object TPC-H catalog (§4.4.3) and restricts
// ES to 8 objects; we refuse anything beyond this many layouts. The bound
// applies to the canonical space: when dominance pruning collapses a
// larger raw space back under it (symmetric units enumerate one canonical
// member per orbit), the search is admitted.
const MaxExhaustiveLayouts = 5_000_000

// Exhaustive enumerates every layout at the input's copy cap — L: O -> D at
// a cap of one, L: O -> 2^D (member sets restricted to the box's classes and
// the cap) above it, the space that explodes from |D|^n to (2^|D|)^n — and
// returns the feasible one with minimum estimated TOC, using the same
// estimator and constraints as DOT. It is the quality yardstick of
// §4.4.3/§4.5.3. The walk is branch-and-bound: it skips subtrees whose TOC
// floor already exceeds the incumbent and fans subtrees out across
// Input.Workers goroutines, and both leave the result byte-identical to the
// sequential, unpruned enumeration.
func Exhaustive(in Input, opts Options) (*Result, error) {
	return exhaustive(in, opts, in.Replication.Cap(), in.allObjects(), nil)
}

// ExhaustivePartial enumerates placements for only the given objects,
// keeping every other object pinned at base. It makes the ES comparison
// tractable for catalogs whose full M^N space is out of reach (the TPC-C
// comparison of §4.5.3: we free the objects with the highest I/O pressure
// and pin the tiny remainder). A base that places an object the catalog
// lacks, or places one on a class that is not one, is refused.
func ExhaustivePartial(in Input, opts Options, free []catalog.ObjectID, base catalog.Layout) (*Result, error) {
	return exhaustive(in, opts, 1, free, catalog.SingletonSetLayout(base))
}

// allObjects lists every catalog object — the free set of a full
// enumeration.
func (in Input) allObjects() []catalog.ObjectID {
	objs := in.Cat.Objects()
	free := make([]catalog.ObjectID, len(objs))
	for i, o := range objs {
		free[i] = o.ID
	}
	return free
}

// exhaustive is the one enumeration behind every exhaustive entry point:
// build the engine for the copy cap, derive the constraints from L0, walk
// the assignment space, and fall back to the pinned starting point when
// nothing is feasible. The walk prunes with whatever the engine's estimator
// offers (see pruning) and, without it, visits every layout.
func exhaustive(in Input, opts Options, copyCap int, free []catalog.ObjectID, base catalog.SetLayout) (*Result, error) {
	eng, err := in.engine(copyCap)
	if err != nil {
		return nil, err
	}
	defer eng.Release()
	start := time.Now()
	seen := make(map[catalog.ObjectID]bool, len(free))
	for _, id := range free {
		if in.Cat.Object(id) == nil {
			return nil, fmt.Errorf("core: exhaustive search over object %d, which is not in the catalog", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("core: exhaustive search lists object %d twice", id)
		}
		seen[id] = true
	}
	digits := in.alphabet(copyCap)
	bsp := search.BnBSpace{Base: catalog.NewCompactLayout(in.Cat.NumObjects()), Free: free, Digits: digits}
	if base != nil {
		if bsp.Base, err = in.encode("base", base); err != nil {
			return nil, err
		}
	}
	_, ev0, cons, err := in.prep(opts, eng)
	if err != nil {
		return nil, err
	}
	res := &Result{Constraints: cons}
	in.pruning(&bsp, eng.CompactEstimator(), base, ev0.Metrics.Throughput > 0)

	// Space cap: the raw M^N enumeration is refused beyond the bound —
	// unless dominance collapses the canonical space, which is all the walk
	// visits, back under it.
	if search.CanonicalSpaceSize(bsp.Sigs, len(free), len(digits)) > MaxExhaustiveLayouts {
		return nil, fmt.Errorf("core: exhaustive search over %d objects x %d placements exceeds the %d-layout bound",
			len(free), len(digits), MaxExhaustiveLayouts)
	}

	best, found, st, err := eng.ExhaustiveBnB(cons, bsp)
	if err != nil {
		return nil, err
	}
	res.Evaluated = st.Candidates
	res.Search = st
	if found {
		res.consider(best, cons)
	} else if base == nil {
		// Full enumeration found nothing: report L0's numbers so the caller
		// can decide how to relax the constraints.
		res.fallBack(ev0)
	} else {
		// Partial enumeration found nothing: report the pinned base, with
		// metrics and TOC both evaluated under it (unless pruning skipped
		// the base's subtree, this is a memo hit).
		evBase, err := eng.EvaluateCompact(bsp.Base)
		if err != nil {
			return nil, err
		}
		res.fallBack(evBase)
	}
	res.EstimatorCalls = eng.Stats().EstimatorCalls
	res.PlanTime = time.Since(start)
	return res.finish(), nil
}

// pruning arms the walk's two levers from what the estimator offers: the
// cost bound (needing the linear pricing model, an elapsed — DSS —
// objective, since throughput workloads price TOC as C(L)/T, which an
// elapsed-time floor cannot bound, and an estimator whose Elapsed
// decomposes into additive per-(unit, digit) terms) and dominance (needing
// an estimator that emits placement signatures). An estimator offering
// neither — workload.MapForm, or the plan-aware DSS estimator — leaves the
// walk the plain enumeration.
func (in Input) pruning(bsp *search.BnBSpace, est workload.CompactEstimator, base catalog.SetLayout, throughput bool) {
	// The linear cost model's inputs: per-object sizes in GB (dense, by
	// catalog.DenseIndex) and per-class prices in cents/GB/hour.
	sizes := in.Cat.DenseSizeBytes()
	bsp.SizeGB = make([]float64, len(sizes))
	for i, sz := range sizes {
		bsp.SizeGB[i] = float64(sz) / 1e9
	}
	for _, d := range in.Box.Devices {
		if int(d.Class) < device.NumClasses {
			bsp.PriceCents[d.Class] = d.PriceCents
		}
	}
	if dec, ok := est.(workload.ElapsedDecomposable); ok && in.LayoutCost == nil && !throughput {
		table := make([]time.Duration, in.Cat.NumObjects()*len(bsp.Digits))
		if fixed, ok := dec.AccumulateElapsedTable(table, bsp.Digits); ok {
			bsp.Bounds = unitBounds(table, fixed, bsp.Free, base, bsp.Digits)
		}
	}
	// Dominance needs the layout cost to be symmetric in per-class totals,
	// which every price the engine admits is (a custom LayoutCost included:
	// cost bounding stays off for it, since the floor assumes linear
	// pricing). The unit's size joins the signature: interchangeability
	// needs equal per-class cost and capacity contributions too.
	if sig, ok := est.(workload.PlacementSignable); ok {
		bsp.Sigs = make([][]byte, len(bsp.Free))
		for i, id := range bsp.Free {
			bsp.Sigs[i] = binary.BigEndian.AppendUint64(
				sig.AppendPlacementSignature(nil, id), uint64(sizes[catalog.DenseIndex(id)]))
		}
	}
}

// unitBounds builds the per-unit bound table from the estimator's elapsed
// decomposition (dense, catalog.DenseIndex(id)*len(digits) + digit): each
// free unit's per-digit elapsed contribution, plus the fixed remainder (the
// estimator's layout-independent share and every pinned object's
// contribution — integer sums, so grouping is exact).
func unitBounds(table []time.Duration, fixed time.Duration, free []catalog.ObjectID, base catalog.SetLayout, digits []device.ClassSet) *search.UnitBounds {
	m := len(digits)
	ub := &search.UnitBounds{Time: make([]time.Duration, len(free)*m), Fixed: fixed}
	inFree := make(map[catalog.ObjectID]bool, len(free))
	for i, id := range free {
		inFree[id] = true
		d := catalog.DenseIndex(id)
		copy(ub.Time[i*m:(i+1)*m], table[d*m:(d+1)*m])
	}
	for id, set := range base {
		d := catalog.DenseIndex(id)
		if inFree[id] || d < 0 || (d+1)*m > len(table) {
			continue
		}
		for ci, digit := range digits {
			if digit == set {
				ub.Fixed += table[d*m+ci]
			}
		}
	}
	return ub
}
