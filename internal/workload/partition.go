// Partition-granular estimation: profile-driven estimators re-derive
// themselves over a catalog.Partitioning's unit catalog by apportioning
// their observed per-object I/O counts across each object's units in
// proportion to extent heat. The derived estimators price unit-granular
// layouts with the same arithmetic as their object-granular sources, so a
// layout that places every unit of an object together costs exactly what
// the object-granular layout does — and a layout that splits a hot extent
// from its cold tail is priced for exactly that split.
//
// The plan-aware DSS estimator cannot apportion: its per-query costs come
// from planning against object statistics, and it compiles for its engine's
// object catalog only (never a unit catalog). It is rejected with a
// descriptive error; partition-granular advising requires the
// profile-driven paths (§4.5's test run or observed counts). Partition-
// granular planning is a follow-up, not something the cost tables give.
package workload

import (
	"fmt"

	"dotprov/internal/catalog"
	"dotprov/internal/iosim"
)

// Partitionable is implemented by estimators that can re-derive themselves
// at partition granularity.
type Partitionable interface {
	// PartitionFor returns an estimator over the partitioning's unit
	// catalog together with the unit-granular workload profile (the
	// apportioned union of the estimator's observations) for move scoring.
	PartitionFor(pt *catalog.Partitioning) (Estimator, iosim.Profile, error)
}

// PartitionEstimator re-derives est over the partitioning's unit catalog.
// It unwraps compiled estimators transparently and errors for estimators
// that cannot be apportioned (plan-aware DSS estimation).
func PartitionEstimator(est Estimator, pt *catalog.Partitioning) (Estimator, iosim.Profile, error) {
	p, ok := est.(Partitionable)
	if !ok {
		return nil, nil, fmt.Errorf("workload: estimator %T cannot be re-derived at partition granularity (profile-driven estimators only)", est)
	}
	return p.PartitionFor(pt)
}

// PartitionFor implements Partitionable: each observed query's profile is
// apportioned onto the units, CPU times carry over unchanged.
func (e *ObservedEstimator) PartitionFor(pt *catalog.Partitioning) (Estimator, iosim.Profile, error) {
	out := &ObservedEstimator{Box: e.Box, Concurrency: e.Concurrency}
	union := iosim.NewProfile()
	for _, q := range e.PerQuery {
		up := iosim.ApportionProfile(q.Profile, pt)
		union.Merge(up)
		out.PerQuery = append(out.PerQuery, QueryObservation{Profile: up, CPU: q.CPU})
	}
	return out, union, nil
}

// PartitionFor implements Partitionable: the test-run profile is
// apportioned onto the units and the estimator is re-based on the expanded
// profiled layout, so throughput scaling starts from the same test run.
func (e *ProfileEstimator) PartitionFor(pt *catalog.Partitioning) (Estimator, iosim.Profile, error) {
	up := iosim.ApportionProfile(e.Profile, pt)
	pe, err := NewSetProfileEstimator(e.Box, e.Concurrency, up, e.CPUTime, e.Stats, pt.ExpandSetLayout(e.profiled))
	if err != nil {
		return nil, nil, err
	}
	return pe, up, nil
}

// UnitMigrationBytes sums the sizes of the units a unit-granular layout
// transition moves. Production migration accounting comes from the online
// manager's online.MigrationPlan (which also prices the moves); this is
// the independent cross-check its per-partition byte totals are verified
// against.
func UnitMigrationBytes(pt *catalog.Partitioning, from, to catalog.Layout) int64 {
	var total int64
	for _, u := range pt.Units() {
		src, okFrom := from[u.ID]
		dst, okTo := to[u.ID]
		if okFrom && okTo && src != dst {
			total += u.SizeBytes
		}
	}
	return total
}
