package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/iosim"
	"dotprov/internal/online"
	"dotprov/internal/profiler"
	"dotprov/internal/tpcc"
	"dotprov/internal/tpch"
	"dotprov/internal/workload"
)

// Offline pipeline parameters: the cmd/dotadvisor paths at benchmark scale.
const (
	tpchScale      = 0.002
	tpchScaleQuick = 0.001
	tpchSLA        = 0.5
	tpccSLA        = 0.25
	tpccWorkers    = 8
	tpccPeriod     = 500 * time.Millisecond
)

// pipelineOutcome is what one offline pipeline produced: the advice, its
// validation, and the exact counters of the run.
type pipelineOutcome struct {
	layoutKey      string
	toc, baseTOC   float64
	evaluated      int
	estimatorCalls int
	// wrapped-layer counters (traced pipelines only)
	estimates, estimateNS int64
	rounds                int
	txns                  int64
	runWall               time.Duration
	hits, misses          int64
	pageReads, rowWrites  float64
}

// countingEstimator wraps the plan-aware DSS estimator — which cannot
// compile, so wrapping it leaves the search on the path it was on — and
// counts its calls and busy time. The search engine calls Estimate from
// its worker goroutines, hence atomics rather than spans.
type countingEstimator struct {
	inner workload.Estimator
	calls atomic.Int64
	ns    atomic.Int64
}

// Estimate implements workload.Estimator.
func (e *countingEstimator) Estimate(l catalog.Layout) (workload.Metrics, error) {
	t0 := time.Now()
	m, err := e.inner.Estimate(l)
	e.ns.Add(int64(time.Since(t0)))
	e.calls.Add(1)
	return m, err
}

// dssRunner is the validation phase's probe: it runs the workload for real
// under a layout. With a recorder it records each run as an executor.run
// span and sums what the runs read and wrote.
type dssRunner struct {
	db   *engine.DB
	w    *workload.DSS
	rec  *recorder
	runs int
	io   iosim.Profile
}

// Run implements core.Runner.
func (r *dssRunner) Run(l catalog.Layout) (workload.Observation, error) {
	id := r.rec.begin("executor.run")
	defer r.rec.end(id)
	r.runs++
	if err := r.db.SetLayout(l); err != nil {
		return workload.Observation{}, err
	}
	obs, err := r.w.RunDetailed(r.db)
	if err == nil {
		r.io.Merge(obs.Profile)
	}
	return obs, err
}

// profileIO sums a profile into page reads and row writes.
func profileIO(p iosim.Profile) (pageReads, rowWrites float64) {
	for _, v := range p {
		pageReads += v[device.SeqRead] + v[device.RandRead]
		rowWrites += v[device.SeqWrite] + v[device.RandWrite]
	}
	return
}

// poolPages sizes the buffer pool at an eighth of the database, as
// cmd/dotadvisor does.
func poolPages(db *engine.DB) int {
	if n := db.TotalPages() / 8; n > 32 {
		return n
	}
	return 32
}

// tpchPipeline is the cmd/dotadvisor TPC-H path in process: load, analyze,
// profile on the baseline layouts, optimize, validate with test runs.
func tpchPipeline(rec *recorder, seed int64, sf float64, workers int) (pipelineOutcome, error) {
	var out pipelineOutcome
	pid := rec.begin("pipeline")
	defer rec.end(pid)
	box := device.Box1()
	db := engine.New(box, engine.DefaultPoolPages)
	cfg := tpch.Config{ScaleFactor: sf, Seed: seed}
	if err := rec.in("tpch.build", func() error { return tpch.Build(db, cfg) }); err != nil {
		return out, err
	}
	db.ResizePool(poolPages(db))
	l0 := catalog.NewUniformLayout(db.Cat, box.MostExpensive().Class)
	if err := db.SetLayout(l0); err != nil {
		return out, err
	}
	if err := rec.in("engine.analyze", db.Analyze); err != nil {
		return out, err
	}
	w := tpch.OriginalWorkload(cfg, seed+1)
	var ps *core.ProfileSet
	if err := rec.in("profiler.profile", func() (err error) { ps, err = profiler.ProfileDSSEstimates(db, w); return }); err != nil {
		return out, err
	}
	est := w.Estimator(db)
	var counted *countingEstimator
	if rec != nil {
		counted = &countingEstimator{inner: est}
		est = counted
	}
	runner := &dssRunner{db: db, w: w, rec: rec, io: iosim.NewProfile()}
	in := core.Input{Cat: db.Cat, Box: box, Est: est, Profiles: ps, Concurrency: 1, Workers: workers}
	var res *core.Result
	var val *core.Validation
	err := rec.in("core.optimize_validated", func() (err error) {
		res, val, err = core.OptimizeValidated(in, core.Options{RelativeSLA: tpchSLA}, runner, 3)
		return err
	})
	if err != nil {
		return out, err
	}
	if !res.Feasible || val == nil {
		return out, fmt.Errorf("tpch advise is infeasible")
	}
	if !val.Satisfied {
		return out, fmt.Errorf("validation run misses the SLA: PSR %.2f", val.PSR)
	}
	base, err := w.Estimator(db).Estimate(l0)
	if err != nil {
		return out, err
	}
	if out.baseTOC, err = workload.TOCCents(base, l0, db.Cat, box); err != nil {
		return out, err
	}
	out.layoutKey, out.toc = res.Layout.Key(), res.TOCCents
	out.evaluated, out.estimatorCalls = res.Evaluated, res.EstimatorCalls
	out.rounds = runner.runs
	if counted != nil {
		out.estimates, out.estimateNS = counted.calls.Load(), counted.ns.Load()
	}
	st := db.Pool().Stats()
	out.hits, out.misses = st.Hits, st.Misses
	out.pageReads, out.rowWrites = profileIO(runner.io)
	return out, nil
}

// tpccPipeline is the cmd/dotadvisor TPC-C path in process: load, one test
// run with the online collector tapping every charge, optimize from the
// test-run profile, validate with a second run on the recommended layout.
func tpccPipeline(rec *recorder, seed int64, workers int) (pipelineOutcome, error) {
	var out pipelineOutcome
	pid := rec.begin("pipeline")
	defer rec.end(pid)
	box := device.Box2()
	db := engine.New(box, engine.DefaultPoolPages)
	cfg := tpcc.DefaultConfig()
	cfg.Seed = seed
	if err := rec.in("tpcc.build", func() error { return tpcc.Build(db, cfg) }); err != nil {
		return out, err
	}
	db.ResizePool(poolPages(db))
	l0 := catalog.NewUniformLayout(db.Cat, box.MostExpensive().Class)
	if err := db.SetLayout(l0); err != nil {
		return out, err
	}
	db.SetTap(online.NewCollector(1))
	driver := &tpcc.Driver{Cfg: cfg, Workers: tpccWorkers, Period: tpccPeriod, Seed: seed}
	var probe *tpcc.RunResult
	t0 := time.Now()
	err := rec.in("tpcc.run", func() (err error) { probe, err = driver.Run(db); return })
	out.runWall += time.Since(t0)
	if err != nil {
		return out, err
	}
	db.SetTap(nil)
	// The test-run estimator compiles itself for the search; it is handed
	// over bare — a wrapper would hide CompileFor.
	est, err := driver.Estimator(db, probe)
	if err != nil {
		return out, err
	}
	ps := core.NewProfileSet()
	ps.SetSingle(probe.Profile)
	in := core.Input{Cat: db.Cat, Box: box, Est: est, Profiles: ps, Concurrency: tpccWorkers, Workers: workers}
	var res *core.Result
	err = rec.in("core.search", func() (err error) {
		res, err = core.OptimizeBest(in, core.Options{RelativeSLA: tpccSLA, Baseline: &probe.Metrics})
		return err
	})
	if err != nil {
		return out, err
	}
	if !res.Feasible {
		return out, fmt.Errorf("tpcc advise is infeasible")
	}
	if err := db.SetLayout(res.Layout); err != nil {
		return out, err
	}
	db.ClearPool()
	var check *tpcc.RunResult
	t0 = time.Now()
	err = rec.in("tpcc.run", func() (err error) { check, err = driver.Run(db); return })
	out.runWall += time.Since(t0)
	if err != nil {
		return out, err
	}
	if floor := probe.TpmC * tpccSLA; check.TpmC < floor {
		return out, fmt.Errorf("validated %.0f tpmC is under the floor %.0f", check.TpmC, floor)
	}
	base, err := est.Estimate(l0)
	if err != nil {
		return out, err
	}
	if out.baseTOC, err = workload.TOCCents(base, l0, db.Cat, box); err != nil {
		return out, err
	}
	out.layoutKey, out.toc = res.Layout.Key(), res.TOCCents
	out.evaluated, out.estimatorCalls = res.Evaluated, res.EstimatorCalls
	out.txns = probe.TotalTxns + check.TotalTxns
	st := db.Pool().Stats()
	out.hits, out.misses = st.Hits, st.Misses
	pr, rw := profileIO(probe.Profile)
	pr2, rw2 := profileIO(check.Profile)
	out.pageReads, out.rowWrites = pr+pr2, rw+rw2
	return out, nil
}

// tpccDatabases is how many differently seeded TPC-C databases one
// offline_tpcc run cycles through. A single database makes the run's TOC
// ratio (and its allocation) a property of that one seed — about 2% apart
// from seed to seed; eight bring the run-to-run spread under 1%.
const tpccDatabases = 8

// offlineFamily drives offline_tpch and offline_tpcc: one operation is one
// whole advisor pipeline over the simulated DBMS, single client.
type offlineFamily struct {
	cfg runConfig
	sf  float64
	// refs are the set-up pipelines' outcomes, one per database the run
	// cycles through: every later iteration on a database must recommend
	// the same layout from the same counters.
	refs []pipelineOutcome
	op   int
	// firstDBMS are the untraced latencies on the first database, the
	// baseline the traced replay (which stays on it) is compared with.
	firstDBMS []float64
}

func newOfflineFamily(cfg runConfig) *offlineFamily {
	f := &offlineFamily{cfg: cfg, sf: tpchScale}
	if cfg.quick {
		f.sf = tpchScaleQuick
	}
	return f
}

func (f *offlineFamily) clients() int { return 1 }

// databases is how many differently seeded databases the run cycles
// through.
func (f *offlineFamily) databases() int {
	if f.cfg.workload == wlOfflineTPCC && !f.cfg.quick {
		return tpccDatabases
	}
	return 1
}

// pipeline runs the family's pipeline on its db-th database, traced when
// rec is non-nil.
func (f *offlineFamily) pipeline(rec *recorder, db int) (pipelineOutcome, error) {
	seed := f.cfg.seed*int64(f.databases()) + int64(db)
	if f.cfg.workload == wlOfflineTPCH {
		return tpchPipeline(rec, seed, f.sf, f.cfg.nproc)
	}
	return tpccPipeline(rec, seed, f.cfg.nproc)
}

// setUp runs the reference pipeline of every database. The offline
// workloads have nothing else to prepare — every operation builds its
// database from scratch — so set-up time is the cost of the cold first
// pipelines.
func (f *offlineFamily) setUp() error {
	f.refs = f.refs[:0]
	for db := 0; db < f.databases(); db++ {
		out, err := f.pipeline(nil, db)
		if err != nil {
			return err
		}
		f.refs = append(f.refs, out)
	}
	f.op, f.firstDBMS = 0, nil
	return nil
}

func (f *offlineFamily) tearDown() error { return nil }

func (f *offlineFamily) closeWindow() error { return nil }

// same holds an iteration to its database's reference: the deterministic
// simulator must give the same advice from the same work every time.
func (f *offlineFamily) same(out pipelineOutcome, db int) error {
	ref := f.refs[db]
	if out.layoutKey != ref.layoutKey {
		return fmt.Errorf("recommended layout differs from the first iteration's")
	}
	if out.toc != ref.toc || out.evaluated != ref.evaluated || out.estimatorCalls != ref.estimatorCalls {
		return fmt.Errorf("toc=%v evaluated=%d estimator_calls=%d differ from the first iteration's toc=%v evaluated=%d estimator_calls=%d",
			out.toc, out.evaluated, out.estimatorCalls, ref.toc, ref.evaluated, ref.estimatorCalls)
	}
	return nil
}

func (f *offlineFamily) run(int) outcome {
	db := f.op % f.databases()
	f.op++
	t0 := time.Now()
	out, err := f.pipeline(nil, db)
	lat := time.Since(t0)
	if err == nil {
		err = f.same(out, db)
	}
	if err == nil && db == 0 {
		f.firstDBMS = append(f.firstDBMS, float64(lat)/1e6)
	}
	return outcome{latency: lat, err: err}
}

func (f *offlineFamily) finish(r *runResult) error {
	for _, ref := range f.refs {
		r.tocRatios = append(r.tocRatios, ref.toc/ref.baseTOC)
	}
	return nil
}

// replay runs traced pipelines: the plan-aware estimator and the
// validation runner are wrapped (neither can compile), and the advice must
// equal the unwrapped reference.
func (f *offlineFamily) replay(rec *recorder, d time.Duration, r *runResult) error {
	// The replay stays on the first database, so its exact counters
	// (evaluated, page reads, pool misses) repeat from run to run.
	var last pipelineOutcome
	deadline := time.Now().Add(d)
	n := 0
	for ; n < 2 || time.Now().Before(deadline); n++ {
		rec.nextOp()
		out, err := f.pipeline(rec, 0)
		if err != nil {
			return err
		}
		if err := f.same(out, 0); err != nil {
			return fmt.Errorf("traced pipeline %d: %w", n, err)
		}
		last = out
	}
	stage := func(name string) float64 { return median(rec.durationsMS(name)) }
	self := rec.selfTimesMS()
	pipeline := stage("pipeline")
	r.layer("pipeline.ms", pipeline)
	r.layer("pipeline.residual_ms", median(self["pipeline"]))
	r.layer("core.evaluated", float64(last.evaluated))
	r.layer("core.estimator_calls", float64(last.estimatorCalls))
	if last.evaluated > 0 {
		r.layer("search.memo_hit_ratio", float64(last.evaluated-last.estimatorCalls)/float64(last.evaluated))
	}
	r.layer("bufferpool.misses", float64(last.misses))
	if total := last.hits + last.misses; total > 0 {
		r.layer("bufferpool.hit_ratio", float64(last.hits)/float64(total))
	}
	r.layer("iosim.page_reads", last.pageReads)
	r.layer("iosim.row_writes", last.rowWrites)
	if bare := median(f.firstDBMS); bare > 0 {
		r.layer("trace.overhead_ratio", pipeline/bare)
	}
	if f.cfg.workload == wlOfflineTPCH {
		// executor.run spans are children of core.optimize_validated, so its
		// self time is the search: the estimator re-planning every query
		// under every candidate layout.
		r.layer("tpch.build_ms", stage("tpch.build"))
		r.layer("engine.analyze_ms", stage("engine.analyze"))
		r.layer("profiler.profile_ms", stage("profiler.profile"))
		r.layer("core.search_ms", median(self["core.optimize_validated"]))
		r.layer("executor.run_ms", sumOf(rec.durationsMS("executor.run"))/float64(n))
		r.layer("core.validation_rounds", float64(last.rounds))
		r.layer("workload.estimate_calls", float64(last.estimates))
		r.layer("workload.estimate_ms_total", float64(last.estimateNS)/1e6)
		r.notes = append(r.notes, fmt.Sprintf("traced replay: %d pipelines of %.1f ms: build %.1f, analyze %.1f, profile %.1f, search %.1f (estimator busy %.1f ms over %d calls on %d workers), %d validation runs %.1f",
			n, pipeline, stage("tpch.build"), stage("engine.analyze"), stage("profiler.profile"), median(self["core.optimize_validated"]),
			float64(last.estimateNS)/1e6, last.estimates, f.cfg.nproc, last.rounds, sumOf(rec.durationsMS("executor.run"))/float64(n)))
		return nil
	}
	r.layer("tpcc.build_ms", stage("tpcc.build"))
	r.layer("tpcc.run_ms", sumOf(rec.durationsMS("tpcc.run"))/float64(n))
	r.layer("core.search_ms", stage("core.search"))
	r.layer("engine.txns_per_wall_s", float64(last.txns)/last.runWall.Seconds())
	r.layer("online.collector_charge_ns", collectorChargeNS())
	r.notes = append(r.notes, fmt.Sprintf("traced replay: %d pipelines of %.1f ms: build %.1f, two runs %.1f, search %.3f",
		n, pipeline, stage("tpcc.build"), sumOf(rec.durationsMS("tpcc.run"))/float64(n), stage("core.search")))
	return nil
}

// collectorChargeNS times the online collector's lane charge — the cost
// the tap adds to every page miss and row write of a tapped run — over a
// million page-located charges.
func collectorChargeNS() float64 {
	const charges = 1_000_000
	lane := online.NewCollector(1).Lane()
	t0 := time.Now()
	for i := 0; i < charges; i++ {
		lane.ChargePageIO(catalog.ObjectID(1+i&7), device.IOType(i&3), int64(i&1023), 1)
	}
	if fl, ok := lane.(iosim.Flusher); ok {
		fl.Flush()
	}
	return float64(time.Since(t0)) / charges
}
