// Package profiler implements the paper's profiling phase (§3.4): it
// measures or estimates workload profiles chi^p_r[o] on the baseline
// layouts L_p — one layout per group placement pattern — and packages them
// as the ProfileSet that DOT's move scoring consumes.
//
// Two capture methods exist, matching the paper:
//
//   - estimates from the extended query optimizer (used for TPC-H, §4.4),
//   - an actual test run of the workload (used for TPC-C, §4.5, where one
//     baseline layout suffices because the plans never change).
package profiler

import (
	"fmt"

	"dotprov/internal/core"
	"dotprov/internal/engine"
	"dotprov/internal/iosim"
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

// ProfileDSSTestRuns builds the profile set by actually executing the
// workload on every baseline layout (exact counts, higher profiling cost).
func ProfileDSSTestRuns(db *engine.DB, w *workload.DSS) (*core.ProfileSet, error) {
	ps := core.NewProfileSet()
	saved := db.Layout()
	defer db.SetLayout(saved)
	for _, pattern := range core.BaselinePatterns(db.Cat, db.Box) {
		layout := core.BaselineLayout(db.Cat, pattern)
		if err := db.SetLayout(layout); err != nil {
			return nil, err
		}
		_, prof, err := w.Run(db)
		if err != nil {
			return nil, fmt.Errorf("profiler: test run on %v: %w", pattern, err)
		}
		ps.AddPattern(pattern, prof)
	}
	return ps, nil
}

// ProfileSingle wraps one measured profile as a profile set answering every
// pattern — the paper's TPC-C shortcut (§4.5.1: "we only need one simple
// layout: namely, the All H-SSD case", because the plans stay random-access
// whatever the placement).
func ProfileSingle(prof iosim.Profile) *core.ProfileSet {
	ps := core.NewProfileSet()
	ps.SetSingle(prof)
	return ps
}
