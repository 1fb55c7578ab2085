package core

import (
	"fmt"

	"dotprov/internal/catalog"
	"dotprov/internal/workload"
)

// Partitioned derives the unit-granular sibling of an Input: the catalog
// becomes the partitioning's unit catalog, the estimator is re-derived
// over it (profile-driven estimators apportion their observations by
// extent heat; the plan-aware DSS estimator errors), and the profile set is
// the apportioned union profile for move scoring. Every search entry point —
// at any copy cap, cold, incremental or exhaustive — then runs
// unchanged at unit granularity, compiled fast path included: granularity
// (which catalog) and replication (the copy cap) are orthogonal. The
// estimator is handed on uncompiled; the search's engine compiles it once,
// for the alphabet it will enumerate. A custom LayoutCost carries over: it
// prices per-class totals, which mean the same at either granularity.
// With an identity partitioning the unit problem mirrors the object problem
// object for object (same sizes, same dense IDs). A result's unit layout
// reads back through pt.SplitObjects and pt.CollapseLayout.
func (in Input) Partitioned(pt *catalog.Partitioning) (Input, error) {
	if err := in.validate(); err != nil {
		return Input{}, err
	}
	if pt == nil {
		return Input{}, fmt.Errorf("core: Partitioned requires a partitioning")
	}
	if pt.Base() != in.Cat {
		return Input{}, fmt.Errorf("core: partitioning was not built from the input's catalog")
	}
	est, uprof, err := workload.PartitionEstimator(in.Est, pt)
	if err != nil {
		return Input{}, err
	}
	out := in
	out.Cat = pt.UnitCatalog()
	out.Est = est
	ps := NewProfileSet()
	ps.SetSingle(uprof)
	out.Profiles = ps
	out.Moves = nil // shared lists are scored over the object catalog
	return out, nil
}
