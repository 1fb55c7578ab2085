// Package profiler implements the paper's profiling phase (§3.4): it
// measures or estimates workload profiles chi^p_r[o] on the baseline
// layouts L_p — one layout per group placement pattern — and packages them
// as the ProfileSet that DOT's move scoring consumes.
//
// It captures them as estimates from the extended query optimizer (the
// paper's method for TPC-H, §4.4). The other method, an actual test run
// (TPC-C, §4.5, where one baseline layout suffices because the plans never
// change), needs no package: its callers measure one run and hand the
// profile to core.ProfileSet.SetSingle.
package profiler

import (
	"fmt"

	"dotprov/internal/core"
	"dotprov/internal/engine"
	"dotprov/internal/workload"
)

// ProfileDSSEstimates builds the profile set for a DSS workload by asking
// the extended optimizer for per-object I/O counts on every baseline
// layout. With M classes and a maximum group size K this plans the workload
// on M^K baselines (the paper's complexity argument for K << N); the
// queries are prepared once for all of them.
func ProfileDSSEstimates(db *engine.DB, w *workload.DSS) (*core.ProfileSet, error) {
	pw, err := w.Prepare(db)
	if err != nil {
		return nil, err
	}
	ps := core.NewProfileSet()
	for _, pattern := range core.BaselinePatterns(db.Cat, db.Box) {
		layout := core.BaselineLayout(db.Cat, pattern)
		prof, err := pw.EstimateProfile(layout)
		if err != nil {
			return nil, fmt.Errorf("profiler: baseline %v: %w", pattern, err)
		}
		ps.AddPattern(pattern, prof)
	}
	return ps, nil
}
