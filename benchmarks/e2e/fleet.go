package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/fleet"
	"dotprov/internal/iosim"
	"dotprov/internal/online"
	"dotprov/internal/search"
	"dotprov/internal/serve"
	"dotprov/internal/workload"
)

// The fleet_online cycle of one client: fleetBatches binary batches to one
// tenant, one un-forced re-advise of it, and on every fleetGetEvery-th
// cycle one page of the fleet report; then on to the client's next tenant.
const (
	fleetTenants  = 64
	fleetBatches  = 18
	fleetGetEvery = 10
)

// fleetRatioCycles bounds the adoptions that feed toc_ratio to each
// client's first so many cycles — a prefix the run always completes, so the
// ratio averages the same visits whenever the seed is the same.
const fleetRatioCycles = 1500

// adoption is one re-advise that adopted a changed layout, kept so the
// TOC ratio can be derived after the window: the classes of the pinned
// object list in order — a few bytes, so that what the client retains does
// not move the garbage collector's pace.
type adoption struct {
	shape, phase int
	classes      [fleetObjects]device.Class
}

// compactLayout lowers an adopted layout onto the pinned object order,
// requiring every object exactly once.
func compactLayout(shape int, layout map[string]string) ([fleetObjects]device.Class, error) {
	var out [fleetObjects]device.Class
	if len(layout) != fleetObjects {
		return out, fmt.Errorf("adopted layout names %d of %d objects", len(layout), fleetObjects)
	}
	for j, o := range fleetObjectsSpec(shape) {
		name, ok := layout[o.Name]
		if !ok {
			return out, fmt.Errorf("adopted layout does not place %q", o.Name)
		}
		cls, err := device.ParseClass(name)
		if err != nil {
			return out, err
		}
		out[j] = cls
	}
	return out, nil
}

// fleetClient is one closed-loop client's private state. Client c owns
// tenants c, c+clients, c+2*clients, ... so every tenant's visits — and
// with them its phase flips — are sequenced by one goroutine.
type fleetClient struct {
	cycle  int
	step   int
	visits map[int]int // tenant -> completed visits

	frames    int64
	queuePeak int64 // deepest ingest queue an acknowledgement reported
	readvises int64
	drifted   int64
	adopted   int64
	adoptions []adoption
}

// fleetTotals is the cumulative client-side tally at a window boundary.
type fleetTotals struct {
	frames, readvises, drifted, adopted int64
	health                              serve.HealthResponse
}

// fleetFamily drives fleet_online: a multi-tenant stream of binary
// observation batches (writes) beside re-advises and fleet reports
// (reads), with periodic snapshots on.
type fleetFamily struct {
	cfg     runConfig
	tenants int
	ls      *liveServer
	snapDir string
	cl      []fleetClient
	// prev and last are the tallies at the two most recent window
	// boundaries; the measured window's figures are their difference.
	prev, last fleetTotals
	drainMS    float64
	defineTOC  []float64
}

// snapSeq makes snapshot directory names unique within the process.
var snapSeq atomic.Int64

func newFleetFamily(cfg runConfig) *fleetFamily {
	f := &fleetFamily{cfg: cfg, tenants: fleetTenants}
	if cfg.quick {
		f.tenants = 8
	}
	return f
}

func (f *fleetFamily) clients() int { return httpClients }

// fleetIngestQueue is the ingest queue depth in frames. Acknowledgement is
// decoupled from the fold, so two closed-loop clients can outrun the fold
// workers for as long as a GC cycle or a checkpoint holds those up; at the
// server's default depth (1024 frames, 7 ms of this workload's ingest)
// about one run in five shed a handful of batches. The benchmark must not
// contain operations that fail by design, so the queue is deep enough to
// ride such stalls out; how deep it actually got is reported as
// serve.queue_peak_frames.
const fleetIngestQueue = 16384

// fleetServerConfig is the fleet server's configuration: the benchmark's
// fixed shape plus a deep ingest queue and snapshots every two seconds
// into dir.
func fleetServerConfig(nproc int, dir string) serve.Config {
	cfg := serverConfig(nproc, fleetTenants)
	cfg.IngestQueue = fleetIngestQueue
	cfg.SnapshotDir = dir
	cfg.SnapshotEvery = 2 * time.Second
	return cfg
}

// newSnapDir creates a fresh snapshot directory under the run's temp dir.
func newSnapDir(tmp string) (string, error) {
	dir := filepath.Join(tmp, fmt.Sprintf("snap-%d-%d", os.Getpid(), snapSeq.Add(1)))
	return dir, os.MkdirAll(dir, 0o755)
}

func (f *fleetFamily) setUp() error {
	dir, err := newSnapDir(f.cfg.tmpDir)
	if err != nil {
		return err
	}
	f.snapDir = dir
	ls, err := startServer(fleetServerConfig(f.cfg.nproc, dir), httpClients)
	if err != nil {
		return err
	}
	f.ls = ls
	f.defineTOC = f.defineTOC[:0]
	for i := 0; i < f.tenants; i++ {
		body, err := json.Marshal(fleetDefine(i))
		if err != nil {
			return err
		}
		status, resp, _, err := ls.post("/v1/observe", "application/json", body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("defining %s answered %d: %.200s", fleetTenantName(i), status, resp)
		}
		// The first tenant of each shape is checked independently; the rest
		// share its answer through the fleet memo.
		if err := f.checkDefine(i, body, resp, i < fleetShapes); err != nil {
			return fmt.Errorf("defining %s: %w", fleetTenantName(i), err)
		}
	}
	f.cl = make([]fleetClient, httpClients)
	for c := range f.cl {
		f.cl[c].visits = make(map[int]int)
	}
	f.prev, f.last = fleetTotals{}, fleetTotals{}
	return nil
}

// checkDefine holds a defining observe's answer to the same contract as an
// advise answer: initialized, feasible, every object placed — and, when
// full is set, the map-path recomputation of checkAdvise.
func (f *fleetFamily) checkDefine(i int, reqBody, respBody []byte, full bool) error {
	var resp serve.ObserveResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return err
	}
	if !resp.Initialized || !resp.Feasible {
		return fmt.Errorf("initialized=%v feasible=%v: %s", resp.Initialized, resp.Feasible, resp.Failure)
	}
	if len(resp.Layout) != fleetObjects {
		return fmt.Errorf("layout names %d of %d objects", len(resp.Layout), fleetObjects)
	}
	if !full {
		return nil
	}
	var req serve.ObserveRequest
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return err
	}
	areq, err := json.Marshal(serve.AdviseRequest{Workload: req.Workload, Box: req.Box, SLA: req.SLA})
	if err != nil {
		return err
	}
	aresp, err := json.Marshal(serve.AdviseResponse{Feasible: true, Layout: resp.Layout, TOCCents: resp.TOCCents})
	if err != nil {
		return err
	}
	v, err := checkAdvise(areq, aresp)
	if err != nil {
		return err
	}
	f.defineTOC = append(f.defineTOC, v.toc/v.baseTOC)
	return nil
}

func (f *fleetFamily) tearDown() error {
	if f.ls == nil {
		return nil
	}
	_, err := f.ls.stop()
	f.ls = nil
	if rerr := os.RemoveAll(f.snapDir); err == nil {
		err = rerr
	}
	return err
}

// tenantOf returns the tenant client c visits on its given cycle.
func (f *fleetFamily) tenantOf(c, cycle int) int {
	own := (f.tenants + httpClients - 1 - c) / httpClients // tenants c, c+clients, ...
	return c + (cycle%own)*httpClients
}

func (f *fleetFamily) run(c int) outcome {
	cl := &f.cl[c]
	tenant := f.tenantOf(c, cl.cycle)
	visit := cl.visits[tenant]
	phase := (visit + 1) % 2 // the defining window was phase 0
	name := fleetTenantName(tenant)
	step := cl.step
	cl.step++
	switch {
	case step < fleetBatches:
		body := online.EncodeFrames(fleetBatch(f.cfg.seed, tenant, visit, step, phase))
		status, resp, lat, err := f.ls.post("/v1/observe?stream="+name, online.ContentTypeFrames, body)
		if err != nil {
			return outcome{err: err}
		}
		if status != http.StatusAccepted {
			return outcome{err: fmt.Errorf("frame batch answered %d: %.200s", status, resp)}
		}
		var ack serve.ObserveFramesResponse
		if err := json.Unmarshal(resp, &ack); err != nil {
			return outcome{err: err}
		}
		if ack.Frames != fleetBatchFrames {
			return outcome{err: fmt.Errorf("batch acknowledged %d of %d frames", ack.Frames, fleetBatchFrames)}
		}
		cl.frames += fleetBatchFrames
		if ack.Queued > cl.queuePeak {
			cl.queuePeak = ack.Queued
		}
		return outcome{latency: lat}
	case step == fleetBatches:
		getFleet := cl.cycle%fleetGetEvery == fleetGetEvery-1
		if !getFleet {
			cl.endCycle(tenant)
		}
		body, err := json.Marshal(serve.ReadviseRequest{Stream: name})
		if err != nil {
			return outcome{err: err}
		}
		status, resp, lat, err := f.ls.post("/v1/readvise", "application/json", body)
		if err != nil {
			return outcome{err: err}
		}
		if status != http.StatusOK {
			return outcome{err: fmt.Errorf("readvise answered %d: %.200s", status, resp)}
		}
		var rv serve.ReadviseResponse
		if err := json.Unmarshal(resp, &rv); err != nil {
			return outcome{err: err}
		}
		if !rv.Feasible {
			return outcome{err: fmt.Errorf("readvise of %s infeasible: %s", name, rv.Failure)}
		}
		cl.readvises++
		if rv.Drift.Drifted && rv.Evaluated > 0 {
			cl.drifted++
		}
		if rv.ReAdvised && rv.MovedObjects > 0 {
			classes, err := compactLayout(tenant%fleetShapes, rv.Layout)
			if err != nil {
				return outcome{err: err}
			}
			cl.adopted++
			if cl.cycle <= fleetRatioCycles {
				cl.adoptions = append(cl.adoptions, adoption{shape: tenant % fleetShapes, phase: phase, classes: classes})
			}
		}
		return outcome{kind: kindReadvise, latency: lat}
	default:
		cl.endCycle(tenant)
		status, resp, lat, err := f.ls.get(fmt.Sprintf("/v1/fleet?limit=%d", fleetTenants))
		if err != nil {
			return outcome{err: err}
		}
		if status != http.StatusOK {
			return outcome{err: fmt.Errorf("fleet report answered %d: %.200s", status, resp)}
		}
		var fr serve.FleetResponse
		if err := json.Unmarshal(resp, &fr); err != nil {
			return outcome{err: err}
		}
		if fr.Tenants != f.tenants || len(fr.Rollups) != f.tenants {
			return outcome{err: fmt.Errorf("fleet report lists %d tenants (%d rollups), want %d", fr.Tenants, len(fr.Rollups), f.tenants)}
		}
		return outcome{kind: kindFleetGet, latency: lat}
	}
}

// endCycle finishes the client's visit of a tenant: its next visit ships
// the other phase.
func (cl *fleetClient) endCycle(tenant int) {
	cl.visits[tenant]++
	cl.cycle++
	cl.step = 0
}

// closeWindow waits until every acknowledged frame is folded — frames
// count as ingested only then — and snapshots the tallies.
func (f *fleetFamily) closeWindow() error {
	t0 := time.Now()
	if err := f.ls.waitDrained(10 * time.Second); err != nil {
		return err
	}
	f.drainMS = float64(time.Since(t0)) / 1e6
	h, err := f.ls.health()
	if err != nil {
		return err
	}
	f.prev = f.last
	f.last = fleetTotals{health: h}
	for c := range f.cl {
		f.last.frames += f.cl[c].frames
		f.last.readvises += f.cl[c].readvises
		f.last.drifted += f.cl[c].drifted
		f.last.adopted += f.cl[c].adopted
	}
	return nil
}

// nominalPricer returns a function pricing layouts under a shape's
// jitter-free phase window: TOC(layout) / TOC(all on the most expensive
// class). For a throughput workload the ratio is (cost ratio) x (I/O+CPU
// time ratio), so it does not depend on which layout the window was
// measured under.
func nominalPricer(shape, phase int) (func(classes [fleetObjects]device.Class) (float64, error), error) {
	spec := fleetDefine(shape).Workload
	w := fleetPhaseWindow(shape, phase)
	for j := range spec.IO {
		spec.IO[j].SeqRead, spec.IO[j].RandRead, spec.IO[j].SeqWrite, spec.IO[j].RandWrite = w.io[j][0], w.io[j][1], w.io[j][2], w.io[j][3]
	}
	m, err := buildModel(spec)
	if err != nil {
		return nil, err
	}
	box, err := resolveBox(fleetBox)
	if err != nil {
		return nil, err
	}
	est, err := m.estimator(box)
	if err != nil {
		return nil, err
	}
	toc := func(l catalog.Layout) (float64, error) {
		met, err := est.Estimate(l)
		if err != nil {
			return 0, err
		}
		return workload.TOCCents(met, l, m.cat, box)
	}
	base, err := toc(catalog.NewUniformLayout(m.cat, box.MostExpensive().Class))
	if err != nil {
		return nil, err
	}
	ids := make([]catalog.ObjectID, 0, fleetObjects)
	for _, o := range spec.Objects {
		ids = append(ids, m.cat.Lookup(o.Name).ID)
	}
	return func(classes [fleetObjects]device.Class) (float64, error) {
		l := make(catalog.Layout, fleetObjects)
		for j, cls := range classes {
			l[ids[j]] = cls
		}
		if err := l.CheckCapacity(m.cat, box); err != nil {
			return 0, err
		}
		rec, err := toc(l)
		return rec / base, err
	}, nil
}

func (f *fleetFamily) finish(r *runResult) error {
	frames := f.last.frames - f.prev.frames
	readvises := f.last.readvises - f.prev.readvises
	drifted := f.last.drifted - f.prev.drifted
	adopted := f.last.adopted - f.prev.adopted
	h0, h1 := f.prev.health, f.last.health
	if shed := h1.Shed - h0.Shed; shed != 0 {
		r.problem("%d batches were shed", shed)
	}
	if ing := h1.Ingested - h0.Ingested; ing != frames {
		r.problem("server folded %d frames, clients had %d acknowledged", ing, frames)
	}
	if h1.SnapshotFails != 0 {
		r.problem("%d snapshot failures", h1.SnapshotFails)
	}
	if readvises == 0 {
		r.problem("no re-advise completed in the window")
	} else {
		if float64(drifted) < 0.9*float64(readvises) {
			r.problem("only %d of %d re-advises drifted and searched; the phases are not moving the profile", drifted, readvises)
		}
		if float64(adopted) < 0.1*float64(readvises) {
			r.problem("only %d of %d re-advises adopted a changed layout; the phases are not moving the optimum", adopted, readvises)
		}
	}
	r.layer("frames_per_s", float64(frames)/r.windowWall.Seconds())
	r.layer("serve.drain_ms", f.drainMS)
	var peak int64
	for c := range f.cl {
		if f.cl[c].queuePeak > peak {
			peak = f.cl[c].queuePeak
		}
	}
	r.layer("serve.queue_peak_frames", float64(peak))
	r.layer("serve.snapshots", float64(h1.Snapshots-h0.Snapshots))
	if lookups := (h1.MemoHits - h0.MemoHits) + (h1.MemoMisses - h0.MemoMisses); lookups > 0 {
		r.layer("fleet.memo_hit_ratio", float64(h1.MemoHits-h0.MemoHits)/float64(lookups))
	}
	if readvises > 0 {
		r.layer("online.readvise_adopted_ratio", float64(adopted)/float64(readvises))
	}
	pricers := make(map[[2]int]func([fleetObjects]device.Class) (float64, error))
	for c := range f.cl {
		for _, a := range f.cl[c].adoptions {
			price := pricers[[2]int{a.shape, a.phase}]
			if price == nil {
				var err error
				if price, err = nominalPricer(a.shape, a.phase); err != nil {
					return err
				}
				pricers[[2]int{a.shape, a.phase}] = price
			}
			ratio, err := price(a.classes)
			if err != nil {
				r.failed++
				r.problem("adopted layout: %v", err)
				continue
			}
			r.tocRatios = append(r.tocRatios, ratio)
		}
		f.cl[c].adoptions = nil
	}
	r.notes = append(r.notes, fmt.Sprintf("%d frames folded, %d re-advises (%d drifted and searched, %d adopted), %d snapshots in the window; defining advises checked bit for bit on %d shapes (toc_ratio %.6g)",
		frames, readvises, drifted, adopted, h1.Snapshots-h0.Snapshots, len(f.defineTOC), geoMean(f.defineTOC)))
	return nil
}

// frameWindow lowers a frame onto the window the server folds for it: only
// positive counts enter the profile.
func frameWindow(fr online.Frame, ids []catalog.ObjectID) online.Window {
	p := iosim.NewProfile()
	for _, o := range fr.Objects {
		for t := 0; t < device.NumIOTypes; t++ {
			if o.IO[t] > 0 {
				p.Add(ids[o.Index], device.IOType(t), o.IO[t])
			}
		}
	}
	return online.Window{Profile: p, CPU: fr.CPU, Elapsed: fr.Elapsed, Txns: fr.Txns}
}

// mirrorTenant is the harness-owned twin of one replay tenant: the
// online.Manager the server keeps for it, rebuilt from public constructors
// and fed the same windows.
type mirrorTenant struct {
	mgr *online.Manager
	ids []catalog.ObjectID
}

// newMirrorTenant defines the twin from the tenant's defining observe.
func newMirrorTenant(def serve.ObserveRequest, budget *search.Budget) (*mirrorTenant, error) {
	m, err := buildModel(def.Workload)
	if err != nil {
		return nil, err
	}
	box, err := resolveBox(def.Box)
	if err != nil {
		return nil, err
	}
	mgr, err := online.NewManager(online.Config{Cat: m.cat, Box: box, Concurrency: m.concurrency(), SLA: def.SLA, Budget: budget})
	if err != nil {
		return nil, err
	}
	mgr.Observe(online.Window{
		Profile: m.profile,
		CPU:     time.Duration(def.Workload.CPUMillis * float64(time.Millisecond)),
		Elapsed: time.Duration(def.Workload.ElapsedMillis * float64(time.Millisecond)),
		Txns:    def.Workload.Txns,
	})
	dec, err := mgr.Advise()
	if err != nil {
		return nil, err
	}
	if !dec.Feasible {
		return nil, fmt.Errorf("mirrored initial advise is infeasible")
	}
	mt := &mirrorTenant{mgr: mgr}
	for _, o := range def.Workload.Objects {
		mt.ids = append(mt.ids, m.cat.Lookup(o.Name).ID)
	}
	return mt, nil
}

// replay drives a second, private server single-threaded: one traced
// tenant per shape, each shadowed by a mirror manager that must reach the
// server's decisions, plus an untraced twin tenant that receives the same
// batches for the tracing-overhead baseline.
func (f *fleetFamily) replay(rec *recorder, d time.Duration, r *runResult) (err error) {
	dir, err := newSnapDir(f.cfg.tmpDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv := serve.New(fleetServerConfig(f.cfg.nproc, dir))
	defer srv.Close() // idempotent: the timed Close below is the first call on the success path
	h := srv.Handler()
	budget := search.NewBudget(f.cfg.nproc)
	// call serves one request on the handler with no socket in between,
	// inside a span when one is named, and returns the body, the status and
	// how long ServeHTTP took.
	call := func(span, method, path, ctype string, body []byte) ([]byte, int, time.Duration) {
		req, rr := directRequest(method, path, ctype, body)
		id := -1
		if span != "" {
			id = rec.begin(span)
		}
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		took := time.Since(t0)
		if span != "" {
			rec.end(id)
		}
		return rr.Body.Bytes(), rr.Code, took
	}
	drained := func() error {
		for deadline := time.Now().Add(10 * time.Second); ; {
			body, _, _ := call("", http.MethodGet, "/v1/healthz", "", nil)
			var hr serve.HealthResponse
			if err := json.Unmarshal(body, &hr); err != nil {
				return err
			}
			if hr.Queued == 0 {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replay server still has %d frames queued", hr.Queued)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	mirrors := make([]*mirrorTenant, fleetShapes)
	for k := 0; k < fleetShapes; k++ {
		def := fleetDefine(k)
		for _, name := range []string{"traced-" + fleetTenantName(k), "bare-" + fleetTenantName(k)} {
			def.Stream = name
			body, err := json.Marshal(def)
			if err != nil {
				return err
			}
			if resp, code, _ := call("", http.MethodPost, "/v1/observe", "application/json", body); code != http.StatusOK {
				return fmt.Errorf("defining replay tenant %s answered %d: %.200s", name, code, resp)
			}
		}
		if mirrors[k], err = newMirrorTenant(def, budget); err != nil {
			return err
		}
	}

	ring := fleet.NewRing(f.cfg.nproc, 0)
	var bare []float64
	var adoptedN, readviseN int
	deadline := time.Now().Add(d)
	cycle := 0
	for ; cycle < fleetShapes || time.Now().Before(deadline); cycle++ {
		k := cycle % fleetShapes
		visit := cycle / fleetShapes
		phase := (visit + 1) % 2
		traced, untraced := "traced-"+fleetTenantName(k), "bare-"+fleetTenantName(k)
		mt := mirrors[k]
		for b := 0; b < fleetBatches; b++ {
			rec.nextOp()
			frames := fleetBatch(f.cfg.seed, fleetTenants+k, visit, b, phase)
			var body []byte
			_ = rec.in("online.frame_encode", func() error { body = online.EncodeFrames(frames); return nil })
			// The untraced twin gets the same batch; which of the two goes
			// first alternates, so neither always pays the cold caches.
			sendBare := func() error {
				resp, code, took := call("", http.MethodPost, "/v1/observe?stream="+untraced, online.ContentTypeFrames, body)
				bare = append(bare, float64(took)/1e6)
				if code != http.StatusAccepted {
					return fmt.Errorf("untraced batch answered %d: %.200s", code, resp)
				}
				return nil
			}
			if b%2 == 0 {
				if err := sendBare(); err != nil {
					return err
				}
			}
			if resp, code, _ := call("serve.handler", http.MethodPost, "/v1/observe?stream="+traced, online.ContentTypeFrames, body); code != http.StatusAccepted {
				return fmt.Errorf("traced batch answered %d: %.200s", code, resp)
			}
			if b%2 == 1 {
				if err := sendBare(); err != nil {
					return err
				}
			}
			mid := rec.begin("mirror")
			var decoded []online.Frame
			if err := rec.in("serve.frames_decode", func() (err error) { decoded, err = serve.DecodeExtentFrames(body); return }); err != nil {
				return err
			}
			_ = rec.in("fleet.ring_shard", func() error { ring.Shard(traced); return nil })
			_ = rec.in("online.observe", func() error {
				for _, fr := range decoded {
					mt.mgr.Observe(frameWindow(fr, mt.ids))
				}
				return nil
			})
			rec.end(mid)
		}
		// The re-advise must see the same latest window on both sides, so
		// the replay (unlike the measured window) waits for the fold.
		if err := drained(); err != nil {
			return err
		}
		rec.nextOp()
		rvBody, err := json.Marshal(serve.ReadviseRequest{Stream: traced})
		if err != nil {
			return err
		}
		resp, code, _ := call("serve.readvise_handler", http.MethodPost, "/v1/readvise", "application/json", rvBody)
		if code != http.StatusOK {
			return fmt.Errorf("replayed readvise answered %d: %.200s", code, resp)
		}
		var rv serve.ReadviseResponse
		if err := json.Unmarshal(resp, &rv); err != nil {
			return err
		}
		mid := rec.begin("mirror")
		var dr online.Drift
		if err := rec.in("online.check", func() (err error) { dr, _, err = mt.mgr.Check(); return }); err != nil {
			return err
		}
		var dec *online.Decision
		if err := rec.in("online.readvise", func() (err error) { dec, err = mt.mgr.ReAdvise(false); return }); err != nil {
			return err
		}
		rec.end(mid)
		readviseN++
		if dec.ReAdvised {
			adoptedN++
		}
		got := serve.ReadviseResponse{Drift: serve.DriftOut{Drifted: dr.Drifted, Divergence: dr.Divergence}, ReAdvised: dec.ReAdvised}
		if dec.Result != nil {
			got.Evaluated, got.EstimatorCalls, got.TOCCents = dec.Result.Evaluated, dec.Result.EstimatorCalls, dec.Result.TOCCents
		}
		if dec.ReAdvised {
			got.MovedObjects = len(dec.Migration.Moves)
		}
		if got.Drift.Drifted != rv.Drift.Drifted || got.Drift.Divergence != rv.Drift.Divergence || got.ReAdvised != rv.ReAdvised ||
			got.Evaluated != rv.Evaluated || got.EstimatorCalls != rv.EstimatorCalls || got.TOCCents != rv.TOCCents || got.MovedObjects != rv.MovedObjects {
			return fmt.Errorf("cycle %d: the mirror manager decided drifted=%v divergence=%v readvised=%v evaluated=%d estimator_calls=%d toc=%v moved=%d, the server drifted=%v divergence=%v readvised=%v evaluated=%d estimator_calls=%d toc=%v moved=%d",
				cycle, got.Drift.Drifted, got.Drift.Divergence, got.ReAdvised, got.Evaluated, got.EstimatorCalls, got.TOCCents, got.MovedObjects,
				rv.Drift.Drifted, rv.Drift.Divergence, rv.ReAdvised, rv.Evaluated, rv.EstimatorCalls, rv.TOCCents, rv.MovedObjects)
		}
	}

	// Checkpoint and shutdown costs, called directly.
	var snapBytes float64
	for i := 0; i < 5; i++ {
		if err := rec.in("serve.snapshot", func() error { _, err := srv.Snapshot(); return err }); err != nil {
			return err
		}
	}
	if snapBytes, err = newestFileSize(dir); err != nil {
		return err
	}
	var stateBytes float64
	for _, mt := range mirrors {
		_ = rec.in("online.export", func() error {
			stateBytes = float64(len(online.AppendManagerState(nil, mt.mgr.ExportState())))
			return nil
		})
	}
	if err := rec.in("serve.close", srv.Close); err != nil {
		return err
	}

	// Calls too short for a span pair to time are timed in bulk.
	const ringCalls = 1 << 16
	name := "traced-" + fleetTenantName(0)
	t0 := time.Now()
	for i := 0; i < ringCalls; i++ {
		ring.Shard(name)
	}
	r.layer("fleet.ring_shard_ns", float64(time.Since(t0))/ringCalls)

	stage := func(name string) float64 { return median(rec.durationsMS(name)) }
	handler := stage("serve.handler")
	children := stage("serve.frames_decode") + stage("fleet.ring_shard") + stage("online.observe")
	r.layer("serve.handler_ms", handler)
	r.layer("serve.transport_ms", r.endToEnd["latency_p50_ms"]-handler)
	r.layer("serve.residual_ms", handler-stage("serve.frames_decode")-stage("fleet.ring_shard"))
	r.layer("serve.frames_decode_us", stage("serve.frames_decode")*1e3)
	r.layer("serve.request_bytes", float64(len(online.EncodeFrames(fleetBatch(f.cfg.seed, fleetTenants, 0, 0, 1)))))
	r.layer("online.frame_encode_ns", stage("online.frame_encode")*1e6/fleetBatchFrames)
	r.layer("online.observe_ns", stage("online.observe")*1e6/fleetBatchFrames)
	r.layer("online.check_us", stage("online.check")*1e3)
	r.layer("online.readvise_ms", stage("online.readvise"))
	r.layer("online.export_us", stage("online.export")*1e3)
	r.layer("online.state_bytes", stateBytes)
	r.layer("serve.snapshot_ms", stage("serve.snapshot"))
	r.layer("serve.snapshot_bytes", snapBytes)
	r.layer("serve.close_ms", stage("serve.close"))
	r.layer("core.search_ms", 0) // a frame batch runs no search
	r.layer("search.budget_high_water", float64(budget.HighWater()))
	r.layer("trace.overhead_ratio", handler/median(bare))
	r.notes = append(r.notes, fmt.Sprintf("traced replay: %d cycles, mirror managers equal to the server on all %d re-advises (%d adopted); a batch's decode+route is %.4f ms of serve.handler %.4f ms, the fold (%.4f ms) runs off the request path; readvise handler %.4f ms vs Manager.ReAdvise %.4f ms",
		cycle, readviseN, adoptedN, children-stage("online.observe"), handler, stage("online.observe"), stage("serve.readvise_handler"), stage("online.readvise")))
	return nil
}

// newestFileSize returns the size of the most recently modified regular
// file under dir.
func newestFileSize(dir string) (float64, error) {
	var newest os.FileInfo
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() && (newest == nil || info.ModTime().After(newest.ModTime())) {
			newest = info
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if newest == nil {
		return 0, fmt.Errorf("no snapshot file under %s", dir)
	}
	return float64(newest.Size()), nil
}
