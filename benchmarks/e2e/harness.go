package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a caller of the system sees; every workload
// reports every one (BENCHMARK.json gates them).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"toc_ratio", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KB"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are the diagnostics of single layers, measured by the
// traced replay and the window's own counters. A workload that does not
// exercise a layer reports 0 for it.
var perLayerMetrics = []metricDef{
	{"error_ratio", "ratio"},
	{"latency_samples", "count"},
	{"latency_tail_pct", "%"},
	{"frames_per_s", "frames/s"},
	{"readvise_p50_ms", "ms"},
	{"fleet_get_p50_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.residual_ms", "ms"},
	{"serve.request_bytes", "B"},
	{"serve.response_bytes", "B"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.frames_decode_us", "us"},
	{"serve.drain_ms", "ms"},
	{"serve.queue_peak_frames", "frames"},
	{"serve.snapshot_ms", "ms"},
	{"serve.snapshot_bytes", "B"},
	{"serve.snapshots", "count"},
	{"serve.close_ms", "ms"},
	{"fleet.ring_shard_ns", "ns"},
	{"fleet.memo_hit_ratio", "ratio"},
	{"online.observe_ns", "ns"},
	{"online.check_us", "us"},
	{"online.readvise_ms", "ms"},
	{"online.readvise_adopted_ratio", "ratio"},
	{"online.export_us", "us"},
	{"online.state_bytes", "B"},
	{"online.frame_encode_ns", "ns"},
	{"online.collector_charge_ns", "ns"},
	{"catalog.build_us", "us"},
	{"catalog.partition_ms", "ms"},
	{"catalog.units", "count"},
	{"workload.compile_us", "us"},
	{"workload.estimate_ms_total", "ms"},
	{"workload.estimate_calls", "count"},
	{"core.search_ms", "ms"},
	{"core.plan_ms_reported", "ms"},
	{"core.evaluated", "count"},
	{"core.estimator_calls", "count"},
	{"search.memo_hit_ratio", "ratio"},
	{"core.alloc_kb_per_search", "KB"},
	{"core.allocs_per_search", "count"},
	{"search.budget_high_water", "workers"},
	{"provision.sweep_ms", "ms"},
	{"provision.candidates", "count"},
	{"core.validation_rounds", "count"},
	{"pipeline.ms", "ms"},
	{"pipeline.residual_ms", "ms"},
	{"tpch.build_ms", "ms"},
	{"tpcc.build_ms", "ms"},
	{"engine.analyze_ms", "ms"},
	{"profiler.profile_ms", "ms"},
	{"executor.run_ms", "ms"},
	{"tpcc.run_ms", "ms"},
	{"engine.txns_per_wall_s", "txn/s"},
	{"bufferpool.hit_ratio", "ratio"},
	{"bufferpool.misses", "count"},
	{"iosim.page_reads", "count"},
	{"iosim.row_writes", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// opKind separates an operation's latency series: a workload's primary
// operation feeds latency_p50_ms and latency_tail_ms, the other kinds
// (fleet_online's reads beside its writes) are reported per layer.
type opKind uint8

const (
	kindPrimary opKind = iota
	kindReadvise
	kindFleetGet
	numKinds
)

// outcome is one operation's result. A failed operation (transport error,
// refusal, non-2xx, or an answer failing a validity check) carries the
// reason and contributes to no latency figure.
type outcome struct {
	kind    opKind
	latency time.Duration
	err     error
}

// family is one workload family's hooks into the shared run sequence:
// set-up, closed-loop clients over a measured window, validity checks,
// traced replay.
type family interface {
	// setUp builds everything an operation needs. It is the timed set-up
	// and may be called again after tearDown.
	setUp() error
	// tearDown releases what setUp built.
	tearDown() error
	// clients is the number of closed-loop client goroutines.
	clients() int
	// run executes client c's next operation, untraced. Each client is
	// driven by one goroutine.
	run(c int) outcome
	// closeWindow runs inside the measured window after the clients stop
	// (fleet_online waits for the ingest queue to drain here).
	closeWindow() error
	// finish runs the post-window validity checks and reports the
	// workload's own metrics: TOC ratios of the checked answers and any
	// per-layer figures the window itself yields.
	finish(r *runResult) error
	// replay runs the traced, single-threaded replay for about d and
	// reports per-layer metrics.
	replay(rec *recorder, d time.Duration, r *runResult) error
}

// runConfig parameterizes one workload run.
type runConfig struct {
	workload string
	seed     int64
	warmup   time.Duration
	window   time.Duration
	// replay is the traced replay's length; 0 skips it.
	replay time.Duration
	// quick shrinks the inputs (8 tenants, SF 0.001, smaller partitioned
	// requests) so the whole set runs in seconds.
	quick bool
	nproc int
	// outDir receives trace files; tmpDir holds snapshot directories.
	outDir, tmpDir string
}

// runResult is what one workload run reports.
type runResult struct {
	workload  string
	attempted int64
	failed    int64
	// problems lists failed validity checks (first of each kind).
	problems []string
	endToEnd map[string]float64
	perLayer map[string]float64
	// notes are human-readable remarks printed beside the metrics (the
	// tail percentile actually used, sample counts).
	notes []string
	// tocRatios collects TOC(recommended)/TOC(all on the most expensive
	// class) of the independently checked answers.
	tocRatios []float64
	// windowWall is the measured window's wall time.
	windowWall time.Duration
}

// correct reports whether every validity check passed.
func (r *runResult) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// problem records a failed validity check.
func (r *runResult) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// layer sets a per-layer metric.
func (r *runResult) layer(name string, v float64) { r.perLayer[name] = v }

// clientLog is one client goroutine's record of a phase.
type clientLog struct {
	lat       [numKinds][]float64 // milliseconds, successful operations
	attempted int64
	failed    int64
	firstErr  error
}

// drive runs every client closed-loop until the deadline and merges their
// logs.
func drive(fam family, d time.Duration) clientLog {
	n := fam.clients()
	logs := make([]clientLog, n)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			for time.Now().Before(deadline) {
				out := fam.run(c)
				l.attempted++
				if out.err != nil {
					l.failed++
					if l.firstErr == nil {
						l.firstErr = out.err
					}
					continue
				}
				l.lat[out.kind] = append(l.lat[out.kind], float64(out.latency)/1e6)
			}
		}(c)
	}
	wg.Wait()
	var all clientLog
	for _, l := range logs {
		all.attempted += l.attempted
		all.failed += l.failed
		if all.firstErr == nil {
			all.firstErr = l.firstErr
		}
		for k := range l.lat {
			all.lat[k] = append(all.lat[k], l.lat[k]...)
		}
	}
	return all
}

// Set-up is cheap on some workloads and a whole pipeline on others; it is
// repeated at least setupMinReps times, and on while the repetitions so
// far took under setupBudget (up to setupMaxReps), and the median is
// reported.
const (
	setupMinReps = 3
	setupMaxReps = 101
	setupBudget  = time.Second
)

// tailWanted is each workload's fixed tail percentile: p95 where a window
// holds thousands of samples, p90 on offline_tpcc (about a hundred), and
// the median itself on offline_tpch, whose dozen pipelines per window
// support nothing above it.
var tailWanted = map[string]float64{
	wlAdviseSmall:       0.95,
	wlAdvisePartitioned: 0.95,
	wlAdviseReplicated:  0.95,
	wlProvisionSweep:    0.95,
	wlFleetOnline:       0.95,
	wlOfflineTPCH:       0.50,
	wlOfflineTPCC:       0.90,
}

// newFamily builds the named workload's family.
func newFamily(cfg runConfig) (family, error) {
	switch cfg.workload {
	case wlAdviseSmall, wlAdvisePartitioned, wlAdviseReplicated, wlProvisionSweep:
		return newAdviseFamily(cfg), nil
	case wlFleetOnline:
		return newFleetFamily(cfg), nil
	case wlOfflineTPCH, wlOfflineTPCC:
		return newOfflineFamily(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// runWorkload runs one workload end to end: repeated timed set-up,
// warm-up, the measured window with its validity checks, then the traced
// replay. A set-up failure aborts with an error; failed operations and
// failed post-window checks are reported in the result.
func runWorkload(cfg runConfig) (*runResult, error) {
	fam, err := newFamily(cfg)
	if err != nil {
		return nil, err
	}
	res := &runResult{workload: cfg.workload, endToEnd: map[string]float64{}, perLayer: map[string]float64{}}

	var setups []float64
	var spent time.Duration
	minReps, maxReps := setupMinReps, setupMaxReps
	if cfg.quick {
		minReps, maxReps = 1, 1 // a smoke test needs no steady set-up figure
	}
	for rep := 0; rep < minReps || (rep < maxReps && spent < setupBudget); rep++ {
		if rep > 0 {
			if err := fam.tearDown(); err != nil {
				return nil, fmt.Errorf("%s: tear-down between set-ups: %w", cfg.workload, err)
			}
		}
		t0 := time.Now()
		if err := fam.setUp(); err != nil {
			fam.tearDown()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer fam.tearDown()
	res.endToEnd["setup_s"] = median(setups)

	if cfg.warmup > 0 {
		if warm := drive(fam, cfg.warmup); warm.failed > 0 {
			return nil, fmt.Errorf("%s: warm-up: %d of %d operations failed, first: %w", cfg.workload, warm.failed, warm.attempted, warm.firstErr)
		}
		if err := fam.closeWindow(); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", cfg.workload, err)
		}
	}

	// Start the window from a collected heap so the previous phase's
	// garbage is not charged to it.
	runtime.GC()
	var log clientLog
	var closeErr error
	use := measured(func() {
		log = drive(fam, cfg.window)
		closeErr = fam.closeWindow()
	})
	if closeErr != nil {
		res.problem("closing the window: %v", closeErr)
	}
	res.attempted, res.failed = log.attempted, log.failed
	if log.firstErr != nil {
		res.problem("%d of %d operations failed, first: %v", log.failed, log.attempted, log.firstErr)
	}
	var ok int64
	for k := range log.lat {
		ok += int64(len(log.lat[k]))
	}
	if ok == 0 {
		return nil, fmt.Errorf("%s: no operation succeeded in the window (first error: %v)", cfg.workload, log.firstErr)
	}
	primary := sortedCopy(log.lat[kindPrimary])
	res.windowWall = use.wall
	p50, err := percentile(primary, 0.5)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	tail, used, err := supportedTail(primary, tailWanted[cfg.workload])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if used != tailWanted[cfg.workload] {
		res.notes = append(res.notes, fmt.Sprintf("latency_tail_ms fell back from p%g to p%g: only %d samples", tailWanted[cfg.workload]*100, used*100, len(primary)))
	}
	res.endToEnd["latency_p50_ms"] = p50
	res.endToEnd["latency_tail_ms"] = tail
	res.endToEnd["throughput_ops_s"] = float64(ok) / use.wall.Seconds()
	res.endToEnd["cpu_ms_per_op"] = float64(use.cpu) / 1e6 / float64(ok)
	res.endToEnd["alloc_kb_per_op"] = float64(use.bytes) / 1024 / float64(ok)
	res.layer("error_ratio", float64(log.failed)/float64(log.attempted))
	res.layer("latency_samples", float64(len(primary)))
	res.layer("latency_tail_pct", used*100)
	if p99, err := percentile(primary, 0.99); err == nil {
		res.layer("serve.latency_p99_ms", p99)
	}
	if rv, err := percentile(sortedCopy(log.lat[kindReadvise]), 0.5); err == nil {
		res.layer("readvise_p50_ms", rv)
	}
	if fg, err := percentile(sortedCopy(log.lat[kindFleetGet]), 0.5); err == nil {
		res.layer("fleet_get_p50_ms", fg)
	}
	res.notes = append(res.notes, fmt.Sprintf("window %.2fs, %d operations attempted, %d failed, latency over %d samples (tail p%g)",
		use.wall.Seconds(), log.attempted, log.failed, len(primary), used*100))

	if err := fam.finish(res); err != nil {
		res.problem("post-window checks: %v", err)
	}
	if len(res.tocRatios) == 0 {
		res.problem("no answer was independently checked, toc_ratio is undefined")
	} else {
		res.endToEnd["toc_ratio"] = geoMean(res.tocRatios)
	}

	if cfg.replay > 0 {
		rec := newRecorder()
		if err := fam.replay(rec, cfg.replay, res); err != nil {
			res.problem("traced replay: %v", err)
		}
		res.layer("trace.spans", float64(len(rec.spans)))
		hdr := provenance(cfg.seed)
		hdr["workload"] = cfg.workload
		path := filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json")
		if err := rec.write(path, hdr); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: writing %s: %v\n", path, err)
		}
	}
	if err := fam.tearDown(); err != nil {
		res.problem("tear-down: %v", err)
	}
	res.endToEnd["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// sumOf returns the sum of v.
func sumOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
