package core

import (
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/iosim"
	"dotprov/internal/search"
)

// StorageFloorBound builds an admissible TOC lower bound for exhaustive
// search from a workload profile, for plugging into Input.LowerBound.
//
// It applies to elapsed-time (DSS) estimators whose predicted elapsed time
// is at least the profile's I/O time under the candidate layout (the
// profile-driven estimators; the re-planning optimizer estimator satisfies
// this when its plans are frozen), under the linear cost model of §2.1.
// For such workloads TOC = C(L) x t(L) with both factors positive, so
//
//	min over completions >= (storage-cost floor) x (I/O-time floor):
//
// the cost floor prices every unassigned object on the cheapest class, and
// the time floor charges every profiled object its fastest class. Pruning
// uses a strict comparison against the incumbent, so an admissible bound
// can only skip candidates that provably cannot win.
//
// It returns nil (no pruning) when a custom LayoutCost is installed: the
// floor below assumes the linear model. Throughput (OLTP) workloads price
// TOC as C(L)/T, which this floor cannot bound — the exhaustive entry
// points detect that case from the baseline metrics and ignore the hook.
func (in Input) StorageFloorBound(prof iosim.Profile) search.LowerBound {
	if in.LayoutCost != nil || in.LayoutCostCompact != nil {
		return nil
	}
	// Time floor: every profiled object on its fastest class for its own
	// I/O mix. Independent of the assignment, so computed once.
	var timeFloor time.Duration
	conc := in.conc()
	for id := range prof {
		var best time.Duration
		for i, d := range in.Box.SortedByPrice() {
			t := prof.ObjectIOTime(id, d, conc)
			if i == 0 || t < best {
				best = t
			}
		}
		timeFloor += best
	}
	minPrice := in.Box.Cheapest().PriceCents
	sizes := in.Cat.DenseSizeBytes()
	sizeGB := func(id catalog.ObjectID) float64 {
		if i := catalog.DenseIndex(id); i >= 0 && i < len(sizes) {
			return float64(sizes[i]) / 1e9
		}
		return 0
	}
	return func(partial catalog.SetLayout, unassigned []catalog.ObjectID) (float64, error) {
		var perHour float64
		for id, set := range partial {
			// Enumeration only assigns box classes; every copy pays.
			for _, d := range in.Box.Devices {
				if set.Has(d.Class) {
					perHour += d.PriceCents * sizeGB(id)
				}
			}
		}
		for _, id := range unassigned {
			perHour += minPrice * sizeGB(id)
		}
		return perHour * timeFloor.Hours(), nil
	}
}

// StorageFloorBoundCompact is StorageFloorBound for the compiled DFS
// (Input.CompactBound): the same admissible floor, but the assigned-objects
// cost arrives pre-accumulated from the enumeration's running counter, so
// each bound check only walks the unassigned tail. Like the map form it
// applies only under the linear cost model; nil means no pruning.
func (in Input) StorageFloorBoundCompact(prof iosim.Profile) search.CompactBound {
	if in.LayoutCost != nil || in.LayoutCostCompact != nil {
		return nil
	}
	var timeFloor time.Duration
	conc := in.conc()
	for id := range prof {
		var best time.Duration
		for i, d := range in.Box.SortedByPrice() {
			t := prof.ObjectIOTime(id, d, conc)
			if i == 0 || t < best {
				best = t
			}
		}
		timeFloor += best
	}
	minPrice := in.Box.Cheapest().PriceCents
	sizes := in.Cat.DenseSizeBytes()
	hours := timeFloor.Hours()
	return func(perHour float64, unassigned []catalog.ObjectID) (float64, bool) {
		for _, id := range unassigned {
			if i := catalog.DenseIndex(id); i >= 0 && i < len(sizes) {
				perHour += minPrice * float64(sizes[i]) / 1e9
			}
		}
		return perHour * hours, true
	}
}
