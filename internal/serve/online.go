// Online advising endpoints: /observe ingests live profile windows into
// per-stream online.Managers, /readvise runs the drift-gated incremental
// re-optimization, and an optional background ticker re-advises every
// stream on an interval — the serve-side half of the profile → drift →
// re-advise loop (see internal/online).
package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/online"
	"dotprov/internal/provision"
)

// ObserveRequest ships one observed profile window for a stream. The first
// observe for a stream defines it — objects, box, SLA, tuning — runs the
// initial cold advise, and returns the layout to deploy; every subsequent
// observe must re-send the identical object list (cheap, and it keeps the
// endpoint stateless to operate) with the new window's I/O counts, CPU,
// elapsed time and transaction count, and returns the drift verdict.
type ObserveRequest struct {
	// Stream names the workload stream; "" selects "default".
	Stream string `json:"stream,omitempty"`
	// Workload carries the object list (fixed per stream) and this window's
	// observation: IO counts, cpu_millis, elapsed_millis, txns.
	Workload WorkloadSpec `json:"workload"`
	// Box / Classes / SLA / Alpha configure the stream on first observe
	// (same semantics as AdviseRequest); ignored afterwards.
	Box     string   `json:"box,omitempty"`
	Classes []string `json:"classes,omitempty"`
	SLA     float64  `json:"sla,omitempty"`
	Alpha   float64  `json:"alpha,omitempty"`
	// DriftThreshold, AggregateWindows and HeadroomFraction tune the
	// stream's online manager on first observe (0 selects the online
	// package defaults).
	DriftThreshold   float64 `json:"drift_threshold,omitempty"`
	AggregateWindows int     `json:"aggregate_windows,omitempty"`
	HeadroomFraction float64 `json:"headroom_fraction,omitempty"`
	// Granularity selects the stream's unit of placement on first observe
	// ("object" default, "partition" splits objects on the declared
	// extents — see AdviseRequest.Granularity). At partition granularity
	// observed profiles are apportioned onto the units by extent heat, and
	// re-advises migrate per partition: a drifted hot tail moves alone.
	Granularity string `json:"granularity,omitempty"`
}

// DriftOut is the wire form of online.Drift.
type DriftOut struct {
	Divergence     float64 `json:"divergence"`
	Drifted        bool    `json:"drifted"`
	Thin           bool    `json:"thin,omitempty"`
	RefFingerprint string  `json:"ref_fingerprint,omitempty"`
	ObsFingerprint string  `json:"obs_fingerprint,omitempty"`
}

// ObserveResponse reports an observe outcome. Initialized is true on the
// first observe of a stream, and Layout then carries the initial
// recommendation; later observes carry the drift verdict of the window
// against the stream's reference profile.
type ObserveResponse struct {
	Stream      string            `json:"stream"`
	Granularity string            `json:"granularity,omitempty"`
	Initialized bool              `json:"initialized"`
	Windows     int64             `json:"windows"` // lifetime windows ingested
	Feasible    bool              `json:"feasible"`
	Failure     string            `json:"failure,omitempty"`
	Layout      map[string]string `json:"layout,omitempty"`
	TOCCents    float64           `json:"toc_cents,omitempty"`
	Drift       *DriftOut         `json:"drift,omitempty"`
}

// ReadviseRequest asks a stream to re-advise now. Without Force the layout
// only changes when the drift detector fires.
type ReadviseRequest struct {
	Stream string `json:"stream,omitempty"`
	Force  bool   `json:"force,omitempty"`
}

// ReadviseResponse reports one re-advise decision.
type ReadviseResponse struct {
	Stream      string   `json:"stream"`
	Granularity string   `json:"granularity,omitempty"`
	Drift       DriftOut `json:"drift"`
	// ReAdvised is true when a changed layout was adopted; Incremental
	// marks it came from the seeded migration-gated search rather than the
	// cold fallback.
	ReAdvised   bool              `json:"readvised"`
	Incremental bool              `json:"incremental,omitempty"`
	Feasible    bool              `json:"feasible"`
	Failure     string            `json:"failure,omitempty"`
	Layout      map[string]string `json:"layout,omitempty"`
	// Migration prices the adopted transition. At partition granularity
	// MovedObjects counts the placement units (partitions) that change
	// class, and MovedBytes sums only the moved extents — the per-unit
	// migration accounting that makes a hot-tail move cheap.
	MovedObjects    int     `json:"moved_objects,omitempty"`
	MovedBytes      int64   `json:"moved_bytes,omitempty"`
	MigrationMillis float64 `json:"migration_millis,omitempty"`
	// Search statistics of the decision (absent when no search ran).
	Evaluated         int     `json:"evaluated,omitempty"`
	EstimatorCalls    int     `json:"estimator_calls,omitempty"`
	PlanMillis        float64 `json:"plan_millis,omitempty"`
	TOCCents          float64 `json:"toc_cents,omitempty"`
	ElapsedMillis     float64 `json:"elapsed_millis,omitempty"`
	ThroughputPerHour float64 `json:"throughput_per_hour,omitempty"`
}

// stream is one online-advised workload: the compiled object mapping
// (frozen at initialization) and its manager. Its mutex serializes
// initialization against observation — per stream, so concurrent tenant
// streams never serialize on each other.
type stream struct {
	mu    sync.Mutex
	name  string
	objFP string
	comp  *compiled
	mgr   *online.Manager
	// shard is the stream's owning shard on the fleet ring, fixed at
	// creation: its frames fold on that shard's ingest worker and its
	// ticker re-advises run there.
	shard int
	// lastTouch is the stream's idle clock (unix nanos of the last
	// observe/readvise), read by the eviction janitor.
	lastTouch atomic.Int64
	// Last-decision summary for /v1/fleet rollups, guarded by mu: what
	// kind of decision last ran ("advise", "readvise", "confirmed"),
	// whether it was feasible, and its objective value. memoHit marks the
	// initial advise was answered by the fleet memo.
	lastKind     string
	lastFeasible bool
	lastTOC      float64
	memoHit      bool
	// pt is the stream's partitioning at partition granularity (nil at
	// object granularity); decisions' layouts are then unit-granular and
	// rendered under unit names.
	pt *catalog.Partitioning
	// wire maps binary-frame object indexes (position in the defining
	// observe's object list) onto the stream's catalog IDs and page counts.
	// Published once at initialization and immutable after, so the binary
	// admission path reads it lock-free (nil means the stream is not
	// initialized yet).
	wire atomic.Pointer[[]wireObject]
	// cfgJSON is the raw defining observe request body, kept verbatim so
	// snapshots can persist the stream's exact configuration and recovery
	// can replay it through the same initialization path (see snapshot.go).
	cfgJSON []byte
	// rvKey is the drift-invariant half of the stream's re-advise memo key
	// (defining fingerprint, box, SLA, alpha, granularity, migration
	// headroom), fixed at initialization; see Server.readvise.
	rvKey string
}

// granularity returns the stream's wire granularity label.
func (st *stream) granularity() string {
	if st.pt != nil {
		return "partition"
	}
	return "object"
}

// render maps a decision layout onto wire names at the stream's
// granularity.
func (st *stream) render(l catalog.Layout) map[string]string {
	return renderLayout(searchCatalog(st.comp, st.pt), l)
}

// getStream returns the named stream, creating it (uninitialized) when
// absent and capacity allows. The existing-stream path is a lock-free
// sync.Map Load — the multi-tenant hot path; only creation (and
// rematerialization of an evicted stream) takes streamMu for the slot
// accounting.
func (s *Server) getStream(name string) (*stream, error) {
	if v, ok := s.streams.Load(name); ok {
		return v.(*stream), nil
	}
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if v, ok := s.streams.Load(name); ok {
		return v.(*stream), nil
	}
	if st, err := s.rematerializeLocked(name); err != nil {
		return nil, err
	} else if st != nil {
		return st, nil
	}
	if s.streamN >= s.cfg.MaxStreams {
		return nil, &codedError{code: "stream_capacity",
			err: fmt.Errorf("stream capacity reached (%d); reuse an existing stream or restart dotserve with a larger -max-streams", s.cfg.MaxStreams)}
	}
	st := &stream{name: name, shard: s.ring.Shard(name)}
	s.streams.Store(name, st)
	s.streamN++
	return st, nil
}

// loadStream returns the named stream, rematerializing it from a parked
// eviction record when needed; (nil, nil) when the name is unknown.
func (s *Server) loadStream(name string) (*stream, error) {
	if v, ok := s.streams.Load(name); ok {
		return v.(*stream), nil
	}
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if v, ok := s.streams.Load(name); ok {
		return v.(*stream), nil
	}
	return s.rematerializeLocked(name)
}

// dropStream unregisters a stream if the registry still maps its name to
// this exact instance (a racing re-definition may have replaced it).
func (s *Server) dropStream(st *stream) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if v, ok := s.streams.Load(st.name); ok && v.(*stream) == st {
		s.streams.Delete(st.name)
		s.streamN--
	}
}

// registerStream (re-)inserts an initialized stream. The slot was reserved
// by getStream; re-inserting after a successful init also heals the rare
// race where a failed concurrent definition dropped the entry while this
// one was waiting on st.mu. If a racing definition already re-took the
// name with a DIFFERENT instance, that one wins — never clobber a
// registered stream's manager and window history.
func (s *Server) registerStream(st *stream) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if v, ok := s.streams.Load(st.name); ok {
		if v.(*stream) != st {
			return
		}
		s.streams.Store(st.name, st)
		return
	}
	s.streams.Store(st.name, st)
	s.streamN++
}

// snapshotStreams copies the stream list for the ticker (never hold
// streamMu across a re-advise).
func (s *Server) snapshotStreams() []*stream {
	var out []*stream
	s.streams.Range(func(_, v any) bool {
		out = append(out, v.(*stream))
		return true
	})
	return out
}

func streamName(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// window lowers the spec's observation onto an online.Window over the
// stream's object IDs (object lists are identical, so the freshly compiled
// profile's IDs align with the stream catalog's).
func (c *compiled) window() online.Window {
	return online.Window{
		Profile: c.profile,
		CPU:     time.Duration(c.spec.CPUMillis * float64(time.Millisecond)),
		Elapsed: time.Duration(c.spec.ElapsedMillis * float64(time.Millisecond)),
		Txns:    c.spec.Txns,
	}
}

func driftOut(d online.Drift) DriftOut {
	return DriftOut{
		Divergence:     d.Divergence,
		Drifted:        d.Drifted,
		Thin:           d.Thin,
		RefFingerprint: d.RefFingerprint,
		ObsFingerprint: d.ObsFingerprint,
	}
}

func (s *Server) handleObserve(body []byte) (any, int, error) {
	req, err := decode[ObserveRequest](body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	name := streamName(req.Stream)
	comp, err := compileWorkload(req.Workload)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	st, err := s.getStream(name)
	if err != nil {
		return nil, streamErrStatus(err), err
	}
	st.touch()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.mgr == nil {
		v, status, err := s.initStream(st, req, comp, body)
		if st.mgr == nil {
			// Initialization did not complete (bad config, infeasible
			// advise): release the stream slot so failed definitions cannot
			// exhaust MaxStreams. We still hold st.mu, so a concurrent
			// definer of the same name re-registers via initStream's
			// success path after us.
			s.dropStream(st)
		}
		return v, status, err
	}
	if fp := comp.objectsFingerprint(); fp != st.objFP {
		return nil, http.StatusConflict,
			fmt.Errorf("stream %q: object list differs from the stream's definition (got %s, want %s); use a new stream for a changed schema", name, fp[:12], st.objFP[:12])
	}
	// Translate the incoming profile onto the stream's object IDs by name:
	// IDs are assigned in declaration order so they coincide, but mapping
	// by name keeps the stream correct even if that invariant ever bends.
	w := comp.window()
	w.Profile = st.comp.renameProfile(comp, w.Profile)
	st.mgr.Observe(w)
	s.observed.Add(1)
	dr, _, err := st.mgr.Check()
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	d := driftOut(dr)
	return ObserveResponse{
		Stream:      name,
		Granularity: st.granularity(),
		Windows:     st.mgr.Stats().WindowsClosed,
		Feasible:    true,
		Drift:       &d,
	}, http.StatusOK, nil
}

// streamConfig lowers a defining observe onto the stream's online.Config
// and partitioning. It is the single configuration path shared by
// initStream and snapshot recovery's rebuildStream (see snapshot.go), so
// a restored stream is configured bit-identically to the original — the
// precondition for bit-identical re-advise decisions after recovery.
func (s *Server) streamConfig(req ObserveRequest, comp *compiled) (online.Config, *catalog.Partitioning, error) {
	if err := validSLA(req.SLA); err != nil {
		return online.Config{}, nil, fmt.Errorf("first observe for stream %q must configure the stream: %w", streamName(req.Stream), err)
	}
	box, err := parseBox(AdviseRequest{Box: req.Box, Classes: req.Classes})
	if err != nil {
		return online.Config{}, nil, err
	}
	partitioned, err := parseGranularity(req.Granularity)
	if err != nil {
		return online.Config{}, nil, err
	}
	var pt *catalog.Partitioning
	if partitioned {
		if pt, err = comp.partitioning(); err != nil {
			return online.Config{}, nil, err
		}
	}
	cfg := online.Config{
		Cat:              comp.cat,
		Box:              box,
		Concurrency:      comp.concurrency(),
		SLA:              req.SLA,
		AggregateWindows: req.AggregateWindows,
		DriftThreshold:   req.DriftThreshold,
		HeadroomFraction: req.HeadroomFraction,
		Budget:           s.budget,
		Partitioning:     pt,
	}
	if req.Alpha != 0 {
		if cfg.LayoutCost, err = provision.DiscreteCost(box, req.Alpha); err != nil {
			return online.Config{}, nil, err
		}
	}
	return cfg, pt, nil
}

// pinWire publishes the stream's binary-frame index space: frame objects
// address the defining observe's object list by position (compileWorkload
// validated every name, so the lookups cannot miss). Published last — a
// non-nil wire list implies the stream's manager is in place.
func (st *stream) pinWire(comp *compiled) {
	objs := make([]wireObject, len(comp.spec.Objects))
	for i, o := range comp.spec.Objects {
		objs[i] = wireObject{
			id:    comp.cat.Lookup(o.Name).ID,
			pages: (o.SizeBytes + catalog.DefaultPageBytes - 1) / catalog.DefaultPageBytes,
		}
	}
	st.wire.Store(&objs)
}

// wireObject is one entry of a stream's binary-frame index space: the
// catalog ID a frame index names, and the object's length in pages — the
// bound on the extent buckets a frame may address.
type wireObject struct {
	id    catalog.ObjectID
	pages int64
}

// initStream defines a stream from its first observe: builds the manager,
// ingests the first window and runs the initial cold advise. body is the
// raw request, retained as the stream's durable configuration. Callers
// hold st.mu.
func (s *Server) initStream(st *stream, req ObserveRequest, comp *compiled, body []byte) (any, int, error) {
	cfg, pt, err := s.streamConfig(req, comp)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	box := cfg.Box
	mgr, err := online.NewManager(cfg)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	mgr.Observe(comp.window())
	s.observed.Add(1)
	// The initial cold advise runs through the fleet memo: equal-workload
	// tenants (same fingerprint, box, SLA, alpha, granularity) coalesce
	// onto one search and share its result. Identical specs compile
	// identical catalogs — object IDs are assigned in declaration order —
	// so the shared layout is valid for every tenant with the key, and the
	// manager clones it before adopting.
	memoKey := fleetMemoKey(comp, box, req)
	memoHit := false
	dec, err := mgr.AdviseWith(func(in core.Input, opts core.Options) (*core.Result, error) {
		v, hit, err := s.fleetMemo.Do(memoKey, func() (any, error) { return core.OptimizeBest(in, opts) })
		if err != nil {
			return nil, err
		}
		memoHit = hit
		return v.(*core.Result), nil
	})
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	resp := ObserveResponse{
		Stream:      st.name,
		Granularity: req.Granularity,
		Initialized: true,
		Windows:     mgr.Stats().WindowsClosed,
		Feasible:    dec.Feasible,
	}
	if resp.Granularity == "" {
		resp.Granularity = "object"
	}
	if !dec.Feasible {
		// The stream stays UNDEFINED — the next observe must re-send the
		// configuration (e.g. at a corrected SLA) — so the wire flag must
		// say so. Diagnose against the catalog the search actually ran on.
		resp.Initialized = false
		resp.Failure = provision.InfeasibilityReason(searchCatalog(comp, pt), box, coreOptions(req.SLA))
		return resp, http.StatusOK, nil
	}
	resp.Layout = renderLayout(searchCatalog(comp, pt), dec.Result.Layout)
	resp.TOCCents = dec.Result.TOCCents
	st.comp = comp
	st.objFP = comp.objectsFingerprint()
	st.mgr = mgr
	st.pt = pt
	st.cfgJSON = body
	st.rvKey = readviseMemoBase(comp, box, req)
	st.memoHit = memoHit
	st.noteDecision("advise", dec.Feasible, dec.Result.TOCCents)
	st.pinWire(comp)
	s.registerStream(st)
	return resp, http.StatusOK, nil
}

func (s *Server) handleReadvise(body []byte) (any, int, error) {
	req, err := decode[ReadviseRequest](body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	name := streamName(req.Stream)
	st, err := s.loadStream(name)
	if err != nil {
		return nil, streamErrStatus(err), err
	}
	if st == nil {
		return nil, http.StatusNotFound, fmt.Errorf("unknown stream %q (define it with /observe first)", name)
	}
	st.touch()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.mgr == nil {
		return nil, http.StatusConflict, fmt.Errorf("stream %q has no feasible initial advise yet", name)
	}
	dec, err := s.readvise(st, req.Force)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	resp := s.readviseResponse(st, dec)
	return resp, http.StatusOK, nil
}

// readviseMemoBase is the drift-invariant part of a stream's re-advise
// memo key: the defining workload fingerprint, box, SLA, alpha and
// granularity (fleetMemoKey) plus the migration headroom fraction, which
// parameterizes the incremental search's acceptance gate. The per-decision
// parts — the deployed seed layout and the observed-aggregate fingerprint
// — join in Server.readvise.
func readviseMemoBase(comp *compiled, box *device.Box, req ObserveRequest) string {
	return fmt.Sprintf("%s|%g", fleetMemoKey(comp, box, req), req.HeadroomFraction)
}

// readvise runs one re-advise for the stream through the fleet re-advise
// memo: tenants whose defining configuration, deployed layout and
// observed-aggregate fingerprint all agree run the drifted search once and
// share its result — the manager clones the layout before adopting, and
// migration planning stays per-tenant after the search returns. Both seam
// halves are keyed: the seeded incremental search on (base, seed layout,
// observed fingerprint) — equal keys imply an identical input, seed and
// migration gate — and the cold fallback on (base, observed fingerprint)
// alone, since no seed or gate shapes it. Callers hold st.mu.
func (s *Server) readvise(st *stream, force bool) (*online.Decision, error) {
	return st.mgr.ReAdviseWith(force,
		func(obsFP string, in core.Input, opts core.IncrementalOptions) (*core.Result, error) {
			key := "readvise-inc|" + st.rvKey + "|" + opts.Seed.Key() + "|" + obsFP
			v, _, err := s.fleetMemo.Do(key, func() (any, error) { return core.OptimizeIncremental(in, opts) })
			if err != nil {
				return nil, err
			}
			return v.(*core.Result), nil
		},
		func(obsFP string, in core.Input, opts core.Options) (*core.Result, error) {
			key := "readvise-cold|" + st.rvKey + "|" + obsFP
			v, _, err := s.fleetMemo.Do(key, func() (any, error) { return core.OptimizeBest(in, opts) })
			if err != nil {
				return nil, err
			}
			return v.(*core.Result), nil
		})
}

// readviseResponse lowers a decision onto the wire form. Callers hold
// st.mu.
func (s *Server) readviseResponse(st *stream, dec *online.Decision) ReadviseResponse {
	resp := ReadviseResponse{
		Stream:      st.name,
		Granularity: st.granularity(),
		Drift:       driftOut(dec.Drift),
		ReAdvised:   dec.ReAdvised,
		Incremental: dec.Incremental,
		// A decision that ran no search (no drift, thin window) makes no
		// feasibility claim: the deployed layout stands, report it fine.
		Feasible: dec.Feasible || dec.Result == nil,
	}
	if dec.Result != nil {
		resp.Evaluated = dec.Result.Evaluated
		resp.EstimatorCalls = dec.Result.EstimatorCalls
		resp.PlanMillis = float64(dec.Result.PlanTime) / float64(time.Millisecond)
		resp.TOCCents = dec.Result.TOCCents
		resp.ElapsedMillis = float64(dec.Result.Metrics.Elapsed) / float64(time.Millisecond)
		resp.ThroughputPerHour = dec.Result.Metrics.Throughput
		if !dec.Feasible {
			resp.Failure = "no feasible layout under the drifted profile — SLA unmet even by a full re-search; the deployed layout is unchanged"
		}
	}
	if dec.ReAdvised {
		resp.Layout = st.render(dec.Result.Layout)
		resp.MovedObjects = len(dec.Migration.Moves)
		resp.MovedBytes = dec.Migration.Bytes
		resp.MigrationMillis = float64(dec.Migration.Time) / float64(time.Millisecond)
		s.readvised.Add(1)
	}
	if dec.Result != nil {
		kind := "confirmed"
		if dec.ReAdvised {
			kind = "readvise"
		}
		st.noteDecision(kind, dec.Feasible, resp.TOCCents)
	}
	return resp
}

// readviseShard is one tick of a shard's background loop: re-advise every
// initialized stream the shard owns (drift-gated, never forced) and log
// the decisions. One ticker runs per shard, so a tenant's background
// re-advises happen on exactly its owning shard and a slow search on one
// shard never delays another shard's sweep. Each stream's step runs under
// guard, so one panicking search is counted and contained while the sweep
// — and the ticker — live on.
func (s *Server) readviseShard(shard int) {
	for _, st := range s.snapshotStreams() {
		if st.shard == shard {
			s.guard("re-advise ticker", func() { s.readviseOne(st) })
		}
	}
}

// readviseOne runs one stream's drift-gated ticker re-advise and logs the
// decision.
func (s *Server) readviseOne(st *stream) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.mgr == nil {
		return
	}
	dec, err := s.readvise(st, false)
	if err != nil {
		s.logf("readvise stream=%s error: %v", st.name, err)
		return
	}
	resp := s.readviseResponse(st, dec)
	if dec.ReAdvised {
		s.logf("readvise stream=%s drifted divergence=%.3f moved=%d bytes=%d migration=%v toc=%.4e evaluated=%d incremental=%v",
			st.name, dec.Drift.Divergence, resp.MovedObjects, resp.MovedBytes,
			dec.Migration.Time.Round(time.Millisecond), resp.TOCCents, resp.Evaluated, dec.Incremental)
	} else if dec.Drift.Drifted {
		s.logf("readvise stream=%s drifted divergence=%.3f but layout confirmed (evaluated=%d feasible=%v)",
			st.name, dec.Drift.Divergence, resp.Evaluated, dec.Feasible)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// renameProfile maps a profile compiled against other's catalog onto the
// receiver's object IDs by object name.
func (c *compiled) renameProfile(other *compiled, p iosim.Profile) iosim.Profile {
	out := iosim.NewProfile()
	for id, v := range p {
		src := other.cat.Object(id)
		if src == nil {
			continue
		}
		o := c.cat.Lookup(src.Name)
		if o == nil {
			continue
		}
		for _, t := range device.AllIOTypes {
			if v[t] > 0 {
				out.Add(o.ID, t, v[t])
			}
		}
	}
	return out
}

// coreOptions is the shared lowering of a request SLA onto core.Options.
func coreOptions(sla float64) core.Options { return core.Options{RelativeSLA: sla} }
