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

// stream is one online-advised workload: the compiled object mapping and
// its manager. newStream builds it whole, and it is registered only once
// defined, so its manager, wire index and object fingerprint are fixed for
// its whole life, registered or parked. Its mutex serializes observation,
// re-advise and export — per stream, so concurrent tenant streams never
// serialize on each other.
type stream struct {
	mu    sync.Mutex
	name  string
	objFP string
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
	// wire maps binary-frame object indexes (position in the defining
	// observe's object list) onto the stream's catalog IDs and page counts.
	// Immutable, so the binary admission path reads it without the lock.
	wire []wireObject
	// cfgJSON is the raw defining observe request body, kept verbatim so
	// snapshots can persist the stream's exact configuration and recovery
	// can replay it through newStream (see snapshot.go).
	cfgJSON []byte
}

// granularity returns the stream's wire granularity label.
func (st *stream) granularity() string {
	if st.mgr.Partitioning() != nil {
		return "partition"
	}
	return "object"
}

// lookup returns the named stream: a registered one through a lock-free
// sync.Map Load — the multi-tenant hot path — or a parked one moved back
// into the registry under streamMu; nil when the name is unknown. Its one
// error is a full registry refusing a parked stream's return.
func (s *Server) lookup(name string) (*stream, error) {
	if v, ok := s.streams.Load(name); ok {
		return v.(*stream), nil
	}
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	return s.lookupLocked(name)
}

// lookupLocked is lookup under streamMu. A parked stream returns as it
// was evicted — windows, reference, deployed layout — plus every frame
// folded into it while parked.
func (s *Server) lookupLocked(name string) (*stream, error) {
	if v, ok := s.streams.Load(name); ok {
		return v.(*stream), nil
	}
	st, ok := s.parked[name]
	if !ok {
		return nil, nil
	}
	if err := s.capacityLocked(fmt.Sprintf("evicted stream %q returns once a slot frees", name)); err != nil {
		return nil, err
	}
	delete(s.parked, name)
	st.touch()
	s.streams.Store(name, st)
	s.streamN++
	s.rematerialized.Add(1)
	return st, nil
}

// insert registers a defined stream. The first definition of a name wins:
// when the name is registered, or parked and moved back now, insert
// returns that stream instead of st. A full registry refuses st.
func (s *Server) insert(st *stream) (*stream, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if cur, err := s.lookupLocked(st.name); cur != nil || err != nil {
		return cur, err
	}
	if err := s.capacityLocked(defineHint); err != nil {
		return nil, err
	}
	s.streams.Store(st.name, st)
	s.streamN++
	return st, nil
}

// defineHint is what a define refused for capacity can do about it.
const defineHint = "reuse an existing stream or restart dotserve with a larger -max-streams"

// capacityLocked refuses a further stream once MaxStreams are registered;
// hint says what the refused caller can do. Callers hold streamMu.
func (s *Server) capacityLocked(hint string) error {
	if s.streamN < s.cfg.MaxStreams {
		return nil
	}
	return &codedError{code: "stream_capacity", err: fmt.Errorf("stream capacity reached (%d); %s", s.cfg.MaxStreams, hint)}
}

// tenants copies the stream list: the registered streams (the first live),
// then the parked. Eviction and touch move a stream between the two under
// streamMu, so reading both under it lists a moving tenant exactly once.
// Callers range over the copy, never holding streamMu across a re-advise.
func (s *Server) tenants() (all []*stream, live int) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	s.streams.Range(func(_, v any) bool {
		all = append(all, v.(*stream))
		return true
	})
	live = len(all)
	for _, st := range s.parked {
		all = append(all, st)
	}
	return all, live
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
	st, err := s.lookup(name)
	if err != nil {
		return nil, http.StatusTooManyRequests, err
	}
	if st == nil {
		return s.define(name, req, comp, body)
	}
	return s.observe(st, comp)
}

// observe ingests one JSON window into a registered stream and answers its
// drift verdict.
func (s *Server) observe(st *stream, comp *compiled) (any, int, error) {
	st.touch()
	st.mu.Lock()
	defer st.mu.Unlock()
	if fp := comp.objectsFingerprint(); fp != st.objFP {
		return nil, http.StatusConflict,
			fmt.Errorf("stream %q: object list differs from the stream's definition (got %s, want %s); use a new stream for a changed schema", st.name, fp[:12], st.objFP[:12])
	}
	// Equal object lists compile to equal object IDs, so the window lands
	// on the stream's catalog as it is. Only positive counts enter it, as on
	// the binary path (frameWindow).
	w := comp.window()
	for id, v := range w.Profile {
		if v.Total() == 0 {
			delete(w.Profile, id)
		}
	}
	st.mgr.Observe(w)
	s.observed.Add(1)
	dr, _, err := st.mgr.Check()
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	d := driftOut(dr)
	return ObserveResponse{
		Stream:      st.name,
		Granularity: st.granularity(),
		Windows:     st.mgr.Stats().WindowsClosed,
		Feasible:    true,
		Drift:       &d,
	}, http.StatusOK, nil
}

// newStream builds a complete stream from its defining observe. It is the
// one constructor behind a define and a snapshot restore, so a restored
// stream is configured bit-identically to the original — the precondition
// for bit-identical re-advise decisions after recovery. body is the raw
// defining request, kept as the stream's durable configuration.
func (s *Server) newStream(name string, req ObserveRequest, comp *compiled, body []byte) (*stream, error) {
	if err := validSLA(req.SLA); err != nil {
		return nil, fmt.Errorf("first observe for stream %q must configure the stream: %w", name, err)
	}
	tg, err := parseTarget(comp, req.SLA, req.Box, req.Classes, req.Granularity, req.Alpha)
	if err != nil {
		return nil, err
	}
	cfg := online.Config{
		Cat:              comp.cat,
		Box:              tg.box,
		Concurrency:      comp.concurrency(),
		SLA:              req.SLA,
		AggregateWindows: req.AggregateWindows,
		DriftThreshold:   req.DriftThreshold,
		HeadroomFraction: req.HeadroomFraction,
		Budget:           s.budget,
		LayoutCost:       tg.layoutCost,
		Partitioning:     tg.pt,
	}
	mgr, err := online.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	// Frame objects address the defining object list by position
	// (compileWorkload validated every name, so the lookups cannot miss).
	wire := make([]wireObject, len(comp.spec.Objects))
	for i, o := range comp.spec.Objects {
		wire[i] = wireObject{
			id:    comp.cat.Lookup(o.Name).ID,
			pages: (o.SizeBytes + catalog.DefaultPageBytes - 1) / catalog.DefaultPageBytes,
		}
	}
	st := &stream{name: name, objFP: comp.objectsFingerprint(), mgr: mgr, shard: s.ring.Shard(name),
		wire: wire, cfgJSON: body}
	st.touch()
	return st, nil
}

// wireObject is one entry of a stream's binary-frame index space: the
// catalog ID a frame index names, and the object's length in pages — the
// bound on the extent buckets a frame may address.
type wireObject struct {
	id    catalog.ObjectID
	pages int64
}

// define answers the first observe of a name: it builds the stream, ingests
// the first window and runs the initial cold advise, and registers the
// stream only once that advise is feasible. A define that loses the name
// to a concurrent one is answered as an observe of the winner.
func (s *Server) define(name string, req ObserveRequest, comp *compiled, body []byte) (any, int, error) {
	// A full registry refuses before searching; insert makes the final check.
	s.streamMu.Lock()
	err := s.capacityLocked(defineHint)
	s.streamMu.Unlock()
	if err != nil {
		return nil, http.StatusTooManyRequests, err
	}
	st, err := s.newStream(name, req, comp, body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	// The collector keeps the window it is given, and this one's profile is
	// the compiled workload's own (the fleet-memo key below reads it), so
	// hand it a copy — once per define.
	st.mgr.Observe(comp.window().Clone())
	// The initial cold advise runs through the fleet memo: equal-workload
	// tenants (same fingerprint, box, SLA, alpha, granularity) coalesce
	// onto one search and share its result. Identical specs compile
	// identical catalogs — object IDs are assigned in declaration order —
	// so the shared layout is valid for every tenant with the key, and the
	// manager clones it before adopting.
	memoKey := fleetMemoKey(comp, st.mgr.Box(), req, st.granularity())
	dec, err := st.mgr.AdviseWith(func(in core.Input, opts core.Options) (*core.Result, error) {
		v, hit, err := s.fleetMemo.Do(memoKey, func() (any, error) { return core.OptimizeBest(in, opts) })
		if err != nil {
			return nil, err
		}
		st.memoHit = hit
		return v.(*core.Result), nil
	})
	if err != nil {
		s.observed.Add(1)
		return nil, http.StatusUnprocessableEntity, err
	}
	resp := ObserveResponse{
		Stream:      name,
		Granularity: st.granularity(),
		Windows:     st.mgr.Stats().WindowsClosed,
	}
	if !dec.Feasible {
		// The stream stays undefined — the next observe must re-send the
		// configuration (e.g. at a corrected SLA) — and is never registered.
		// Diagnose against the catalog the search actually ran on.
		s.observed.Add(1)
		resp.Failure = provision.InfeasibilityReason(st.mgr.Catalog(), st.mgr.Box(), core.Options{RelativeSLA: req.SLA})
		return resp, http.StatusOK, nil
	}
	st.noteDecision("advise", true, dec.Result.TOCCents)
	cur, err := s.insert(st)
	if err != nil {
		return nil, http.StatusTooManyRequests, err
	}
	if cur != st {
		return s.observe(cur, comp)
	}
	s.observed.Add(1)
	resp.Initialized = true
	resp.Feasible = true
	resp.Layout = renderLayout(st.mgr.Catalog(), dec.Result.Layout)
	resp.TOCCents = dec.Result.TOCCents
	return resp, http.StatusOK, nil
}

func (s *Server) handleReadvise(body []byte) (any, int, error) {
	req, err := decode[ReadviseRequest](body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	name := streamName(req.Stream)
	st, err := s.lookup(name)
	if err != nil {
		return nil, http.StatusTooManyRequests, err
	}
	if st == nil {
		return nil, http.StatusNotFound, fmt.Errorf("unknown stream %q (define it with /observe first)", name)
	}
	st.touch()
	st.mu.Lock()
	defer st.mu.Unlock()
	dec, err := st.mgr.ReAdvise(req.Force)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	resp := s.readviseResponse(st, dec)
	return resp, http.StatusOK, nil
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
		resp.Layout = renderLayout(st.mgr.Catalog(), dec.Result.Layout)
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
// registered stream the shard owns (drift-gated, never forced) and log
// the decisions. One ticker runs per shard, so a tenant's background
// re-advises happen on exactly its owning shard and a slow search on one
// shard never delays another shard's sweep. Each stream's step runs under
// guard, so one panicking search is counted and contained while the sweep
// — and the ticker — live on.
func (s *Server) readviseShard(shard int) {
	all, live := s.tenants()
	for _, st := range all[:live] {
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
	dec, err := st.mgr.ReAdvise(false)
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
