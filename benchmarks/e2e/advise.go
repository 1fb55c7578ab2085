package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/provision"
	"dotprov/internal/search"
	"dotprov/internal/serve"
)

// sampleSpill keeps one client's sampled answers for the independent
// checker — on disk, not on the heap. The server allocates megabytes per
// request against a live heap of a few, so the garbage collector's pace is
// set by whatever else is live: holding 1200 provision answers (25 MB) in
// memory made provision_sweep's requests 30% faster (7.4 ms against 10.7)
// and their latency four times as noisy (IQR 13.5% against 3.4%). Requests are not kept at all; the generator reproduces them
// from (client, op).
type sampleSpill struct {
	f *os.File
	w *bufio.Writer
	n int
}

// newSampleSpill creates a client's spill file under dir.
func newSampleSpill(dir string, client int) (*sampleSpill, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, fmt.Sprintf("samples-%d-*", client))
	if err != nil {
		return nil, err
	}
	return &sampleSpill{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// add appends one sampled answer: operation index, length, body.
func (s *sampleSpill) add(op int, resp []byte) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(op))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(resp)))
	if _, err := s.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := s.w.Write(resp)
	s.n++
	return err
}

// each replays the spilled answers in the order they were added.
func (s *sampleSpill) each(fn func(op int, resp []byte) error) error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(s.f, 1<<16)
	for i := 0; i < s.n; i++ {
		var hdr [16]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		resp := make([]byte, binary.LittleEndian.Uint64(hdr[8:]))
		if _, err := io.ReadFull(r, resp); err != nil {
			return err
		}
		if err := fn(int(binary.LittleEndian.Uint64(hdr[:])), resp); err != nil {
			return err
		}
	}
	return nil
}

// discard closes and removes the spill file.
func (s *sampleSpill) discard() {
	if s != nil && s.f != nil {
		s.f.Close()
		os.Remove(s.f.Name())
		s.f = nil
	}
}

// adviseClient is one closed-loop client's private state.
type adviseClient struct {
	op      int
	samples *sampleSpill
	planMS  []float64
}

// adviseFamily drives the four request/response workloads — advise_small,
// advise_partitioned, advise_replicated and provision_sweep — over a
// loopback socket with two keep-alive clients.
type adviseFamily struct {
	cfg    runConfig
	tables int
	// sampleEvery is the checker's sampling stride: one answer in this
	// many is re-derived on the map path after the window closes.
	// sampleOps bounds the sampled operations to each client's first so
	// many: a set the run always completes, so the checked inputs — and
	// with them toc_ratio — are the same whenever the seed is.
	sampleEvery uint64
	sampleOps   int
	ls          *liveServer
	cl          []adviseClient
	// memProbe, when set, receives the heap allocation of every search
	// stage the mirror runs (see searchStage).
	memProbe *searchAllocs
}

// searchAllocs collects per-search allocation figures.
type searchAllocs struct {
	kb, allocs []float64
}

// searchStage runs the mirror's search stage as a span. With memProbe set
// it also brackets the call with ReadMemStats — which stops the world, so
// the probe is only ever set outside the timed replay.
func (f *adviseFamily) searchStage(rec *recorder, name string, fn func() error) error {
	if f.memProbe == nil {
		return rec.in(name, fn)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := rec.in(name, fn)
	runtime.ReadMemStats(&after)
	f.memProbe.kb = append(f.memProbe.kb, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	f.memProbe.allocs = append(f.memProbe.allocs, float64(after.Mallocs-before.Mallocs))
	return err
}

// httpClients is the closed-loop client count of the HTTP workloads: one
// per core of the two-core reference host, so requests never queue.
const httpClients = 2

func newAdviseFamily(cfg runConfig) *adviseFamily {
	// The issue asked for a 1-in-50 sample. TOC ratios differ a lot from
	// input to input (the log-ratio's standard deviation is 0.39 on
	// advise_small, 0.21 on provision_sweep), so the seed-to-seed spread of
	// their geometric mean is set by the sample count: these strides check
	// 4000, 200, 200 and 1200 answers, which holds the spread near 1%.
	f := &adviseFamily{cfg: cfg, sampleEvery: 5, sampleOps: 10000}
	switch cfg.workload {
	case wlAdvisePartitioned:
		f.tables, f.sampleEvery, f.sampleOps = partitionedTables, 5, 500
	case wlAdviseReplicated:
		f.tables, f.sampleEvery, f.sampleOps = replicatedTables, 4, 400
	case wlProvisionSweep:
		f.sampleEvery, f.sampleOps = 1, 600
	}
	if cfg.quick {
		f.sampleEvery = 4
		if f.tables > 0 {
			f.tables = 6
		}
	}
	return f
}

func (f *adviseFamily) clients() int { return httpClients }

func (f *adviseFamily) setUp() error {
	ls, err := startServer(serverConfig(f.cfg.nproc, 64), httpClients)
	if err != nil {
		return err
	}
	f.ls = ls
	f.cl = make([]adviseClient, httpClients)
	for c := range f.cl {
		if f.cl[c].samples, err = newSampleSpill(f.cfg.tmpDir, c); err != nil {
			return err
		}
	}
	// Set-up ends when the service has answered each client once: the first
	// requests pay the cold paths (connection, first compile, page faults),
	// and starting a server that has never answered would leave set-up a
	// few hundred microseconds of listener noise.
	for c := range f.cl {
		if out := f.run(c); out.err != nil {
			return fmt.Errorf("first request of client %d: %w", c, out.err)
		}
	}
	return nil
}

func (f *adviseFamily) tearDown() error {
	if f.ls == nil {
		return nil
	}
	for c := range f.cl {
		f.cl[c].samples.discard()
	}
	_, err := f.ls.stop()
	f.ls = nil
	return err
}

func (f *adviseFamily) closeWindow() error { return nil }

// sampled reports whether client c's operation op is one of the seeded
// sample the checker re-derives.
func (f *adviseFamily) sampled(c, op int) bool {
	return op < f.sampleOps && newPRNG(f.cfg.seed, workloadID(f.cfg.workload), uint64(c), uint64(op), 0xc4ec).u64()%f.sampleEvery == 0
}

func (f *adviseFamily) run(c int) outcome {
	cl := &f.cl[c]
	op := cl.op
	cl.op++
	in, err := genAdvise(f.cfg.workload, f.cfg.seed, c, op, f.tables)
	if err != nil {
		return outcome{err: err}
	}
	status, body, lat, err := f.ls.post(in.path, "application/json", in.body)
	if err != nil {
		return outcome{err: err}
	}
	if status != http.StatusOK {
		return outcome{err: fmt.Errorf("%s answered %d: %.200s", in.path, status, body)}
	}
	ans, err := decodeAnswer(in, body)
	if err != nil {
		return outcome{err: err}
	}
	if in.candidates == 0 {
		cl.planMS = append(cl.planMS, ans.planMS)
	}
	if f.sampled(c, op) {
		if err := cl.samples.add(op, body); err != nil {
			return outcome{err: err}
		}
	}
	return outcome{latency: lat}
}

// answer is what the per-operation validity check and the replay's
// handler/mirror comparison read from a response.
type answer struct {
	toc            float64
	evaluated      int
	estimatorCalls int
	planMS         float64
}

// decodeAnswer applies the per-operation validity checks: HTTP 200 is not
// success — the answer must be feasible, report the expected unit count
// and place every unit.
func decodeAnswer(in adviseInput, body []byte) (answer, error) {
	if in.candidates > 0 {
		var resp serve.ProvisionResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return answer{}, err
		}
		switch {
		case resp.Cached:
			return answer{}, fmt.Errorf("provision answer came from the sweep cache; inputs must never repeat")
		case len(resp.Candidates) != in.candidates:
			return answer{}, fmt.Errorf("provision answer carries %d candidates, want %d", len(resp.Candidates), in.candidates)
		case resp.Best < 0 || resp.Best >= len(resp.Candidates):
			return answer{}, fmt.Errorf("provision sweep found no feasible candidate")
		}
		best := resp.Candidates[resp.Best]
		if !best.Feasible || len(best.Layout) != in.objects {
			return answer{}, fmt.Errorf("best candidate %q: feasible=%v, layout names %d of %d objects", best.Name, best.Feasible, len(best.Layout), in.objects)
		}
		return answer{toc: best.TOCCents, evaluated: resp.Evaluated, estimatorCalls: resp.EstimatorCalls}, nil
	}
	var resp serve.AdviseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return answer{}, err
	}
	if !resp.Feasible {
		return answer{}, fmt.Errorf("advise answered infeasible: %s", resp.Failure)
	}
	if resp.Units != in.units {
		return answer{}, fmt.Errorf("advise searched %d units, the generator declared %d", resp.Units, in.units)
	}
	placed := len(resp.Layout)
	if resp.Replicas != nil {
		placed = len(resp.Replicas)
	}
	if placed != in.placed() {
		return answer{}, fmt.Errorf("advise placed %d units, want %d", placed, in.placed())
	}
	return answer{toc: resp.TOCCents, evaluated: resp.Evaluated, estimatorCalls: resp.EstimatorCalls, planMS: resp.PlanMillis}, nil
}

func (f *adviseFamily) finish(r *runResult) error {
	var plan []float64
	for c := range f.cl {
		plan = append(plan, f.cl[c].planMS...)
		err := f.cl[c].samples.each(func(op int, resp []byte) error {
			in, err := genAdvise(f.cfg.workload, f.cfg.seed, c, op, f.tables)
			if err != nil {
				return err
			}
			var v verdict
			if f.cfg.workload == wlProvisionSweep {
				v, err = checkProvision(in.body, resp)
			} else {
				v, err = checkAdvise(in.body, resp)
			}
			if err != nil {
				// The operation passed the per-answer checks in the window;
				// failing the independent one makes it a failed operation.
				r.failed++
				r.problem("independent check: %v", err)
				return nil
			}
			r.tocRatios = append(r.tocRatios, v.toc/v.baseTOC)
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(plan) > 0 {
		r.layer("core.plan_ms_reported", median(plan))
	}
	r.notes = append(r.notes, fmt.Sprintf("independent checker re-derived %d answers (1 in %d of each client's first %d)", len(r.tocRatios), f.sampleEvery, f.sampleOps))
	return nil
}

// exactOps is how many replayed operations the exact counters
// (core.evaluated, core.estimator_calls, body sizes) are summed over: a
// fixed count, so they repeat exactly however many operations the replay's
// time allowed.
const exactOps = 8

// mirrored is the mirrored pipeline's answer for one request.
type mirrored struct {
	answer
	units      int
	candidates int
	planSumMS  float64
	respBytes  int
}

// mirror runs the request through the pipeline the handler runs, built
// from public functions only, recording one span per stage.
func (f *adviseFamily) mirror(rec *recorder, in adviseInput, budget *search.Budget) (mirrored, error) {
	var out mirrored
	if in.candidates > 0 {
		return f.mirrorProvision(rec, in, budget)
	}
	var req serve.AdviseRequest
	if err := rec.in("serve.decode", func() error { return json.Unmarshal(in.body, &req) }); err != nil {
		return out, err
	}
	box, err := resolveBox(req.Box)
	if err != nil {
		return out, err
	}
	var m *model
	if err := rec.in("catalog.build", func() (err error) { m, err = buildModel(req.Workload); return }); err != nil {
		return out, err
	}
	var pt *catalog.Partitioning
	if req.Granularity == "partition" {
		if err := rec.in("catalog.partition", func() (err error) { pt, err = m.partitioning(); return }); err != nil {
			return out, err
		}
		out.units = pt.NumUnits()
	}
	var sin core.Input
	err = rec.in("workload.compile", func() error {
		// The estimators are handed to workload.CompileEstimator bare: a
		// wrapper would hide CompileFor and silently move the search onto
		// the map path — a different program.
		cin, err := m.input(box, budget)
		if err != nil {
			return err
		}
		if req.Replication {
			cin.Replication = core.ReplicationConfig{Enabled: true, MaxReplicas: req.MaxReplicas}
		}
		sin = cin
		if pt != nil {
			sin, err = cin.Partitioned(pt)
		}
		return err
	})
	if err != nil {
		return out, err
	}
	opts := core.Options{RelativeSLA: req.SLA}
	resp := serve.AdviseResponse{Granularity: "object", Units: out.units}
	if pt != nil {
		resp.Granularity = "partition"
	}
	var res *core.Result
	var rres *core.ReplicaResult
	err = f.searchStage(rec, "core.search", func() (err error) {
		if req.Replication {
			if rres, err = core.OptimizeReplicated(sin, opts); err == nil {
				res = rres.Result
			}
			return err
		}
		res, err = core.OptimizeBest(sin, opts)
		return err
	})
	if err != nil {
		return out, err
	}
	if !res.Feasible {
		return out, fmt.Errorf("mirrored search is infeasible")
	}
	var body []byte
	err = rec.in("serve.encode", func() (err error) {
		resp.Feasible = true
		resp.TOCCents = res.TOCCents
		resp.Evaluated = res.Evaluated
		resp.EstimatorCalls = res.EstimatorCalls
		resp.PlanMillis = float64(res.PlanTime) / float64(time.Millisecond)
		resp.ElapsedMillis = float64(res.Metrics.Elapsed) / float64(time.Millisecond)
		resp.ThroughputPerHour = res.Metrics.Throughput
		if rres != nil {
			resp.Replicas = renderSets(sin.Cat, rres.SetLayout)
			resp.MaxCopies = rres.MaxCopies()
			resp.ReplicatedCopies = rres.ReplicatedCopies()
		}
		if res.Layout != nil {
			resp.Layout = renderClasses(sin.Cat, res.Layout)
		}
		body, err = json.Marshal(resp)
		return err
	})
	if err != nil {
		return out, err
	}
	out.answer = answer{toc: res.TOCCents, evaluated: res.Evaluated, estimatorCalls: res.EstimatorCalls, planMS: resp.PlanMillis}
	out.respBytes = len(body)
	return out, nil
}

// renderClasses maps a layout onto unit name -> class name.
func renderClasses(cat *catalog.Catalog, l catalog.Layout) map[string]string {
	out := make(map[string]string, len(l))
	for id, cls := range l {
		out[cat.Object(id).Name] = cls.String()
	}
	return out
}

// renderSets maps a replicated layout onto unit name -> copy class names.
func renderSets(cat *catalog.Catalog, sl catalog.SetLayout) map[string][]string {
	out := make(map[string][]string, len(sl))
	for id, set := range sl {
		names := make([]string, 0, set.Count())
		for _, cls := range set.Classes() {
			names = append(names, cls.String())
		}
		out[cat.Object(id).Name] = names
	}
	return out
}

// mirrorProvision is mirror for /v1/provision: the whole grid sweep is one
// provision.SweepConfigurations call.
func (f *adviseFamily) mirrorProvision(rec *recorder, in adviseInput, budget *search.Budget) (mirrored, error) {
	var out mirrored
	var req serve.ProvisionRequest
	if err := rec.in("serve.decode", func() error { return json.Unmarshal(in.body, &req) }); err != nil {
		return out, err
	}
	grid, err := gridOf(req.Grid)
	if err != nil {
		return out, err
	}
	var m *model
	if err := rec.in("catalog.build", func() (err error) { m, err = buildModel(req.Workload); return }); err != nil {
		return out, err
	}
	var base core.Input
	if err := rec.in("workload.compile", func() (err error) { base, err = m.input(grid.Universe(), budget); return }); err != nil {
		return out, err
	}
	var choice *provision.Choice
	err = f.searchStage(rec, "provision.sweep", func() (err error) {
		choice, err = provision.SweepConfigurations(base, grid, core.Options{RelativeSLA: req.SLA})
		return err
	})
	if err != nil {
		return out, err
	}
	if choice.Best < 0 {
		return out, fmt.Errorf("mirrored sweep found no feasible candidate")
	}
	var body []byte
	err = rec.in("serve.encode", func() (err error) {
		resp := serve.ProvisionResponse{Best: choice.Best, Evaluated: choice.Evaluated, EstimatorCalls: choice.EstimatorCalls}
		for _, cr := range choice.Results {
			c := serve.CandidateOut{Name: cr.Name, Feasible: cr.Result.Feasible, Failure: cr.Failure, TOCCents: cr.Result.TOCCents, Alpha: cr.Spec.Alpha}
			if cr.Result.Feasible {
				c.Layout = renderClasses(m.cat, cr.Result.Layout)
			}
			resp.Candidates = append(resp.Candidates, c)
		}
		body, err = json.Marshal(resp)
		return err
	})
	if err != nil {
		return out, err
	}
	for _, cr := range choice.Results {
		out.planSumMS += float64(cr.Result.PlanTime) / float64(time.Millisecond)
	}
	out.answer = answer{toc: choice.Results[choice.Best].Result.TOCCents, evaluated: choice.Evaluated, estimatorCalls: choice.EstimatorCalls}
	out.candidates = len(choice.Results)
	out.respBytes = len(body)
	return out, nil
}

// replayClient is the generator stream the replay draws from: the same
// distribution as the window's clients 0 and 1, but inputs the server has
// never seen — provision_sweep would otherwise be answered from the sweep
// LRU. bareClient feeds provision_sweep's untraced baseline call for the
// same reason: a body served twice is served from the cache.
const (
	replayClient = httpClients
	bareClient   = httpClients + 1
)

// replay issues fresh inputs single-threaded. Each input is served
// three times: by the handler untimed-by-spans (the overhead baseline), by
// the handler inside a serve.handler span, and by the mirrored pipeline
// whose stage spans attribute the handler's time. The mirror is trusted
// only because its TOC, evaluated and estimator_calls must equal the
// handler's for the same body.
func (f *adviseFamily) replay(rec *recorder, d time.Duration, r *runResult) error {
	budget := search.NewBudget(f.cfg.nproc)
	h := f.ls.handler
	var bare, planSum []float64
	var exact struct {
		evaluated, calls, reqBytes, respBytes float64
		units, candidates                     int
	}
	deadline := time.Now().Add(d)
	ops := 0
	for ; ops < exactOps || time.Now().Before(deadline); ops++ {
		in, err := genAdvise(f.cfg.workload, f.cfg.seed, replayClient, ops, f.tables)
		if err != nil {
			return err
		}
		bareIn := in
		if f.cfg.workload == wlProvisionSweep {
			if bareIn, err = genAdvise(f.cfg.workload, f.cfg.seed, bareClient, ops, f.tables); err != nil {
				return err
			}
		}
		rec.nextOp()
		serveOnce := func(traced bool) ([]byte, float64, error) {
			body := bareIn.body
			if traced {
				body = in.body
			}
			req, rr := directRequest(http.MethodPost, in.path, "application/json", body)
			var t0 time.Time
			var dur time.Duration
			if traced {
				id := rec.begin("serve.handler")
				h.ServeHTTP(rr, req)
				rec.end(id)
			} else {
				t0 = time.Now()
				h.ServeHTTP(rr, req)
				dur = time.Since(t0)
			}
			if rr.Code != http.StatusOK {
				return nil, 0, fmt.Errorf("handler answered %d: %.200s", rr.Code, rr.Body.Bytes())
			}
			return rr.Body.Bytes(), float64(dur) / 1e6, nil
		}
		// Alternate which of the two handler calls goes first, so neither
		// side always pays (or always skips) the cold caches.
		var body []byte
		var ms float64
		if ops%2 == 0 {
			if _, ms, err = serveOnce(false); err == nil {
				body, _, err = serveOnce(true)
			}
		} else {
			if body, _, err = serveOnce(true); err == nil {
				_, ms, err = serveOnce(false)
			}
		}
		if err != nil {
			return err
		}
		bare = append(bare, ms)
		want, err := decodeAnswer(in, body)
		if err != nil {
			return fmt.Errorf("replayed operation %d: %w", ops, err)
		}
		mid := rec.begin("mirror")
		got, err := f.mirror(rec, in, budget)
		rec.end(mid)
		if err != nil {
			return fmt.Errorf("mirrored operation %d: %w", ops, err)
		}
		if got.toc != want.toc || got.evaluated != want.evaluated || got.estimatorCalls != want.estimatorCalls {
			return fmt.Errorf("operation %d: the mirrored pipeline answered toc=%v evaluated=%d estimator_calls=%d, the handler toc=%v evaluated=%d estimator_calls=%d",
				ops, got.toc, got.evaluated, got.estimatorCalls, want.toc, want.evaluated, want.estimatorCalls)
		}
		planSum = append(planSum, got.planSumMS)
		if ops < exactOps {
			exact.evaluated += float64(got.evaluated)
			exact.calls += float64(got.estimatorCalls)
			exact.reqBytes += float64(len(in.body))
			exact.respBytes += float64(len(body))
			exact.units, exact.candidates = got.units, got.candidates
		}
	}

	handler := median(rec.durationsMS("serve.handler"))
	stage := func(name string) float64 { return median(rec.durationsMS(name)) }
	children := stage("serve.decode") + stage("catalog.build") + stage("catalog.partition") +
		stage("workload.compile") + stage("core.search") + stage("provision.sweep") + stage("serve.encode")
	r.layer("serve.handler_ms", handler)
	r.layer("serve.transport_ms", r.endToEnd["latency_p50_ms"]-handler)
	r.layer("serve.decode_ms", stage("serve.decode"))
	r.layer("serve.encode_ms", stage("serve.encode"))
	r.layer("serve.residual_ms", handler-children)
	r.layer("serve.request_bytes", exact.reqBytes/exactOps)
	r.layer("serve.response_bytes", exact.respBytes/exactOps)
	r.layer("catalog.build_us", stage("catalog.build")*1e3)
	r.layer("catalog.partition_ms", stage("catalog.partition"))
	r.layer("catalog.units", float64(exact.units))
	r.layer("workload.compile_us", stage("workload.compile")*1e3)
	r.layer("core.search_ms", stage("core.search"))
	r.layer("core.evaluated", exact.evaluated)
	r.layer("core.estimator_calls", exact.calls)
	if exact.evaluated > 0 {
		r.layer("search.memo_hit_ratio", (exact.evaluated-exact.calls)/exact.evaluated)
	}
	r.layer("search.budget_high_water", float64(budget.HighWater()))
	if f.cfg.workload == wlProvisionSweep {
		r.layer("provision.sweep_ms", stage("provision.sweep"))
		r.layer("provision.candidates", float64(exact.candidates))
		r.layer("core.plan_ms_reported", median(planSum))
	}
	r.layer("trace.overhead_ratio", handler/median(bare))
	r.notes = append(r.notes, fmt.Sprintf("traced replay: %d operations, mirror equal to handler on every one; stages sum to %.4f ms of serve.handler %.4f ms", ops, children, handler))
	// The mirror repeats the handler's work, so run to run its stages can
	// sum past the handler by noise; only a clear excess means the mirror
	// does work the handler does not.
	if children > 1.25*handler {
		r.problem("mirrored stages sum to %.4f ms, well over serve.handler's %.4f ms", children, handler)
	}

	// Allocation of the search alone, measured apart from the timed replay.
	f.memProbe = &searchAllocs{}
	defer func() { f.memProbe = nil }()
	quiet := newRecorder()
	for i := 0; i < exactOps; i++ {
		in, err := genAdvise(f.cfg.workload, f.cfg.seed, replayClient, i, f.tables)
		if err != nil {
			return err
		}
		if _, err := f.mirror(quiet, in, budget); err != nil {
			return err
		}
	}
	r.layer("core.alloc_kb_per_search", median(f.memProbe.kb))
	r.layer("core.allocs_per_search", median(f.memProbe.allocs))
	return nil
}
