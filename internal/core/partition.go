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
	return out, nil
}

// PartitionedResult is a unit-granular recommendation: the inner Result's
// layouts are keyed by the partitioning's unit catalog.
type PartitionedResult struct {
	// Result is the unit-granular search result.
	*Result
	// Partitioning maps the units back to their objects.
	Partitioning *catalog.Partitioning
}

// ObjectLayout collapses the recommended unit layout back to object
// granularity. ok=false means the recommendation is genuinely sub-object —
// some object's units landed on different classes — and has no lossless
// object form.
func (r *PartitionedResult) ObjectLayout() (catalog.Layout, bool) {
	if r.Result == nil || r.Result.Layout == nil {
		return nil, false
	}
	return r.Partitioning.CollapseLayout(r.Result.Layout)
}

// SplitObjects returns how many objects the recommendation actually
// splits across storage classes — the count of objects whose units
// disagree.
func (r *PartitionedResult) SplitObjects() int {
	if r.Result == nil || r.Result.Layout == nil {
		return 0
	}
	split := 0
	for _, o := range r.Partitioning.Base().Objects() {
		us := r.Partitioning.UnitsOf(o.ID)
		for _, u := range us[1:] {
			if r.Result.Layout[u] != r.Result.Layout[us[0]] {
				split++
				break
			}
		}
	}
	return split
}

// OptimizePartitioned runs DOT at partition granularity: the input is
// lowered onto the partitioning's unit catalog and OptimizeBest searches
// per-unit placements at the input's copy cap — a hot extent can land on a
// fast class (or hold a second point-lookup copy) while its cold tail ships
// to a cheap one. With an identity partitioning the unit
// problem mirrors the object problem object for object (same sizes, same
// dense IDs), and uniform or expanded layouts price bit-identically with
// either estimator form.
func OptimizePartitioned(in Input, pt *catalog.Partitioning, opts Options) (*PartitionedResult, error) {
	uin, err := in.Partitioned(pt)
	if err != nil {
		return nil, err
	}
	res, err := OptimizeBest(uin, opts)
	if err != nil {
		return nil, err
	}
	return &PartitionedResult{Result: res, Partitioning: pt}, nil
}
