// Package workload models the paper's workloads (§2.3-2.4): sets of query
// sequences with a degree of concurrency, performance metrics (per-query
// response time for DSS, throughput for OLTP), relative SLA constraints,
// and the performance satisfaction ratio (PSR) used in the evaluation.
//
// It also provides the two estimators DOT drives (paper Fig. 2): the
// extended-optimizer path used for TPC-H (§4.4) and the test-run-profile
// path used for TPC-C (§4.5).
package workload

import (
	"fmt"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/iosim"
	"dotprov/internal/plan"
)

// Metrics captures a workload's (estimated or measured) performance under
// one layout.
type Metrics struct {
	// Elapsed is the total execution time (virtual) of the workload.
	Elapsed time.Duration
	// PerQuery holds each query's response time, in workload order (DSS).
	PerQuery []time.Duration
	// Throughput is the task rate in tasks/hour (OLTP; 0 for DSS).
	Throughput float64
	// ioTime is the profile I/O time an OLTP estimate derives Elapsed and
	// Throughput from (metricsFromIOTime). Those floats cannot give it back
	// exactly, so the compiled form's EstimateDelta starts from it.
	ioTime time.Duration
}

// Estimator predicts workload metrics under a hypothetical layout. DOT
// calls it once per candidate layout (Procedure 1's estimateTOC).
//
// Concurrency contract: the search engine fans candidate evaluations out
// across a worker pool, so Estimate must be safe for concurrent use by
// multiple goroutines once estimation starts. ObservedEstimator and
// ProfileEstimator guarantee it by being pure readers of statistics frozen
// at construction; the DSS plan-aware estimator reads Analyze-time
// statistics and shares per-query cost tables behind a lock (see dss.go).
// Implementations that cannot meet the contract must be driven with
// Workers <= 1.
type Estimator interface {
	Estimate(l catalog.Layout) (Metrics, error)
}

// TOC is the workload cost (paper §2.1/§2.3) of a layout costing perHour
// cents per hour: for OLTP workloads C(L) / T — cents per task; for DSS
// workloads C(L) * t — cents to run the workload once.
func TOC(perHour float64, m Metrics) float64 {
	if m.Throughput > 0 {
		return perHour / m.Throughput
	}
	return perHour * m.Elapsed.Hours()
}

// TOCCents is TOC under a single-class layout's linear storage cost.
func TOCCents(m Metrics, l catalog.Layout, cat *catalog.Catalog, box *device.Box) (float64, error) {
	perHour, err := l.CostCentsPerHour(cat, box)
	if err != nil {
		return 0, err
	}
	return TOC(perHour, m), nil
}

// Constraints is the performance SLA (paper §2.4): relative to a baseline
// (the all-H-SSD layout L0). Relative = 0.5 allows queries to be 2x slower
// than the baseline (DSS) or throughput to halve (OLTP).
type Constraints struct {
	Relative float64
	Baseline Metrics
}

// QueryCaps returns the per-query response-time caps t_i = baseline_i / r.
func (c Constraints) QueryCaps() []time.Duration {
	caps := make([]time.Duration, len(c.Baseline.PerQuery))
	for i, b := range c.Baseline.PerQuery {
		caps[i] = time.Duration(float64(b) / c.Relative)
	}
	return caps
}

// ThroughputFloor returns the minimum acceptable task rate.
func (c Constraints) ThroughputFloor() float64 {
	return c.Baseline.Throughput * c.Relative
}

// Satisfied reports whether the metrics meet the constraints (every query
// under its cap; throughput above the floor). It computes each cap in
// place rather than materializing the QueryCaps slice: feasibility is
// checked once per candidate on the search hot path.
func (c Constraints) Satisfied(m Metrics) bool {
	if c.Baseline.Throughput > 0 {
		return m.Throughput >= c.ThroughputFloor()
	}
	if len(m.PerQuery) != len(c.Baseline.PerQuery) {
		return false
	}
	for i, d := range m.PerQuery {
		if d > time.Duration(float64(c.Baseline.PerQuery[i])/c.Relative) {
			return false
		}
	}
	return true
}

// PSR returns the performance satisfaction ratio (paper §4.3): the fraction
// of queries meeting their relative SLA. For OLTP it is 1 or 0 (throughput
// either meets the floor or not).
func (c Constraints) PSR(m Metrics) float64 {
	if c.Baseline.Throughput > 0 {
		if m.Throughput >= c.ThroughputFloor() {
			return 1
		}
		return 0
	}
	caps := c.QueryCaps()
	if len(caps) == 0 {
		return 1
	}
	ok := 0
	for i, d := range m.PerQuery {
		if i < len(caps) && d <= caps[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(caps))
}

// ---- DSS ----------------------------------------------------------------

// DSS is a decision-support workload: a query sequence run as one stream
// (paper §2.3; the paper runs the TPC-H mixes with a single stream, §4.4).
type DSS struct {
	Name    string
	Queries []*plan.Query
}

// QueryObservation is one query's measured runtime statistics: its actual
// per-object I/O counts (buffer misses only — cache effects included) and
// its CPU time. The refinement phase re-prices these counts under candidate
// layouts (paper §3: "uses real runtime statistics, such as the actual
// numbers of I/O incurred in the test run, buffer usage statistics").
type QueryObservation struct {
	Profile iosim.Profile
	CPU     time.Duration
}

// Observation is everything a test run yields.
type Observation struct {
	Metrics  Metrics
	Profile  iosim.Profile
	PerQuery []QueryObservation // DSS runs only
}

// RunDetailed executes the workload on the engine's current layout, at the
// engine's degree of concurrency, with a cold buffer pool, and returns the
// measured metrics, the observed I/O profile and each query's own
// observation for the refinement phase.
func (w *DSS) RunDetailed(db *engine.DB) (Observation, error) {
	db.ClearPool()
	sess, err := db.NewSession()
	if err != nil {
		return Observation{}, err
	}
	obs := Observation{Metrics: Metrics{PerQuery: make([]time.Duration, 0, len(w.Queries))}}
	for _, q := range w.Queries {
		start := sess.Acct().Now()
		cpuStart := sess.Acct().CPUTime()
		before := sess.Acct().Profile().Clone()
		if _, err := sess.Run(q); err != nil {
			return Observation{}, fmt.Errorf("workload %s query %s: %w", w.Name, q.Name, err)
		}
		obs.Metrics.PerQuery = append(obs.Metrics.PerQuery, sess.Acct().Now()-start)
		qp := sess.Acct().Profile().Clone()
		for id, v := range before {
			cur := qp[id]
			if cur == nil {
				continue
			}
			for i := range cur {
				cur[i] -= v[i]
			}
		}
		obs.PerQuery = append(obs.PerQuery, QueryObservation{
			Profile: qp,
			CPU:     sess.Acct().CPUTime() - cpuStart,
		})
	}
	obs.Metrics.Elapsed = sess.Acct().Now()
	obs.Profile = sess.Acct().Profile().Clone()
	return obs, nil
}

// DSSRunner is the validation phase's test run of a DSS workload: it
// implements core.Runner by installing each layout on DB and running W
// cold with RunDetailed.
type DSSRunner struct {
	DB *engine.DB
	W  *DSS
}

// Run installs l and returns a cold run of the workload on it, with the
// per-query observations the refinement phase re-estimates from.
func (r DSSRunner) Run(l catalog.Layout) (Observation, error) {
	if err := r.DB.SetLayout(l); err != nil {
		return Observation{}, err
	}
	return r.W.RunDetailed(r.DB)
}

// ObservedEstimator prices measured per-query I/O counts under candidate
// layouts. Because the counts come from a real run they include buffer-pool
// effects; the plans are frozen at the observed layout (the validation
// phase re-checks any recommendation built from it). Estimate only reads
// the frozen observations, so it is safe for concurrent use.
type ObservedEstimator struct {
	Box         *device.Box
	Concurrency int
	PerQuery    []QueryObservation
}

// Estimate implements Estimator.
func (e *ObservedEstimator) Estimate(l catalog.Layout) (Metrics, error) {
	return e.estimate(func(p iosim.Profile) (time.Duration, error) { return p.IOTime(l, e.Box, e.Concurrency) })
}

// EstimateSet implements SetEstimator: the same per-query accumulation over
// replica-routed I/O times, so singleton layouts estimate bit-identically
// to their single-class form.
func (e *ObservedEstimator) EstimateSet(l catalog.SetLayout) (Metrics, error) {
	return e.estimate(func(p iosim.Profile) (time.Duration, error) { return p.SetIOTime(l, e.Box, e.Concurrency) })
}

// estimate is the one body of Estimate and EstimateSet: each query's I/O
// time under the layout plus its CPU time.
func (e *ObservedEstimator) estimate(ioTime func(iosim.Profile) (time.Duration, error)) (Metrics, error) {
	m := Metrics{PerQuery: make([]time.Duration, 0, len(e.PerQuery))}
	for _, q := range e.PerQuery {
		io, err := ioTime(q.Profile)
		if err != nil {
			return Metrics{}, err
		}
		t := io + q.CPU
		m.PerQuery = append(m.PerQuery, t)
		m.Elapsed += t
	}
	return m, nil
}

// ---- OLTP ----------------------------------------------------------------

// RunStats carries the raw numbers of an OLTP test run that the profile
// estimator needs.
type RunStats struct {
	Txns    int64
	Elapsed time.Duration
}

// ProfileEstimator predicts OLTP throughput under candidate layouts from a
// single test-run profile (the paper's TPC-C path, §4.5: "we only need one
// simple layout ... a test run can give actual I/O statistics"). The
// estimated throughput scales inversely with the profile's I/O time under
// the candidate layout (CPU time is layout-invariant). Estimate only reads
// the frozen profile, so it is safe for concurrent use.
type ProfileEstimator struct {
	Box         *device.Box
	Concurrency int
	Profile     iosim.Profile
	CPUTime     time.Duration // measured CPU time of the test run
	Stats       RunStats
	baseTime    time.Duration // I/O time of the profile under the profiled layout
	// profiled is the layout the test run executed under, kept so the
	// estimator can re-derive itself at partition granularity
	// (PartitionFor). It is the constructor's argument, not a copy.
	profiled catalog.SetLayout
}

// NewSetProfileEstimator builds a ProfileEstimator whose test run executed
// under profiled, a possibly replicated deployment: the base I/O time the
// throughput scaling anchors on is priced with per-pattern best-replica
// reads and all-copy writes, exactly as the engine would route them. The
// estimator keeps profiled without copying it, so the caller must not
// modify the map afterwards.
func NewSetProfileEstimator(box *device.Box, concurrency int, profile iosim.Profile, cpu time.Duration, stats RunStats, profiled catalog.SetLayout) (*ProfileEstimator, error) {
	base, err := profile.SetIOTime(profiled, box, concurrency)
	if err != nil {
		return nil, err
	}
	return &ProfileEstimator{Box: box, Concurrency: concurrency, Profile: profile, CPUTime: cpu, Stats: stats,
		baseTime: base, profiled: profiled}, nil
}

// NewProfileEstimator is NewSetProfileEstimator over a single-class
// profiled layout (typically all H-SSD).
func NewProfileEstimator(box *device.Box, concurrency int, profile iosim.Profile, cpu time.Duration, stats RunStats, profiled catalog.Layout) (*ProfileEstimator, error) {
	return NewSetProfileEstimator(box, concurrency, profile, cpu, stats, catalog.SingletonSetLayout(profiled))
}

// Estimate implements Estimator.
func (e *ProfileEstimator) Estimate(l catalog.Layout) (Metrics, error) {
	return e.metricsFromIOTime(e.Profile.IOTime(l, e.Box, e.Concurrency))
}

// EstimateSet implements SetEstimator: the test run's profile re-priced
// over class sets, funneled through the same metricsFromIOTime.
func (e *ProfileEstimator) EstimateSet(l catalog.SetLayout) (Metrics, error) {
	return e.metricsFromIOTime(e.Profile.SetIOTime(l, e.Box, e.Concurrency))
}

// metricsFromIOTime derives the metrics from a candidate layout's profile
// I/O time, or passes on the error pricing it, and records the I/O time in
// them for a later delta. The map path and the compiled path both funnel
// through this one arithmetic, so their floats are bit-identical.
func (e *ProfileEstimator) metricsFromIOTime(io time.Duration, err error) (Metrics, error) {
	if err != nil {
		return Metrics{}, err
	}
	// Scale the measured elapsed time by the predicted change in total work.
	base := e.baseTime + e.CPUTime
	cand := io + e.CPUTime
	if base <= 0 {
		return Metrics{}, fmt.Errorf("workload: profile estimator has no base time")
	}
	elapsed := time.Duration(float64(e.Stats.Elapsed) * float64(cand) / float64(base))
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return Metrics{
		Elapsed:    elapsed,
		Throughput: float64(e.Stats.Txns) / elapsed.Hours(),
		ioTime:     io,
	}, nil
}
