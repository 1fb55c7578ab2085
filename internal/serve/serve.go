// Package serve exposes the DOT advisor as a long-lived HTTP/JSON service —
// the shape an HTAP control plane consumes placement decisions in: not one
// offline run, but a stream of advise/provision requests against changing
// workload profiles (cf. PAPERS.md on continuous placement).
//
// Endpoints (all under /v1; the unversioned aliases of earlier releases are
// gone and answer 404):
//
//	POST /v1/advise     — single-workload DOT on a fixed box (§3)
//	POST /v1/provision  — full configuration sweep over a device grid (§5)
//	POST /v1/observe    — ingest live profile windows for an online stream
//	                      (JSON, or batched binary frames negotiated via
//	                      Content-Type: application/x-dot-extents)
//	POST /v1/readvise   — drift-gated incremental re-advise of a stream
//	GET  /v1/healthz    — liveness + counters
//	GET  /v1/readyz     — readiness: 503 while draining or degraded
//	GET  /v1/fleet      — per-tenant rollups, paginated (see fleet.go)
//
// The server bounds concurrent optimization requests (excess requests get
// 503 immediately rather than queuing unboundedly), applies a per-request
// timeout (504), and answers repeated provisioning sweeps from a
// single-flight fleet.Memo keyed by (workload fingerprint, grid, SLA,
// granularity): concurrent identical sweeps run once, later ones are cache
// hits. Binary observations bypass the optimization gate onto a bounded
// ingest queue that sheds with 429 + Retry-After when full — a slow advisor
// degrades the tap, never the engine. All error responses share one
// envelope: {error, code, failure?}.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dotprov/internal/core"
	"dotprov/internal/faultinject"
	"dotprov/internal/fleet"
	"dotprov/internal/online"
	"dotprov/internal/provision"
	"dotprov/internal/search"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// MaxConcurrent bounds simultaneous optimization requests; further
	// requests are rejected with 503 (default 4).
	MaxConcurrent int
	// RequestTimeout caps one optimization's wall time; on expiry the
	// request gets 504 and the abandoned search finishes (and releases its
	// concurrency slot) in the background (default 30s).
	RequestTimeout time.Duration
	// CacheEntries sizes the sweep-result memo (default 64).
	CacheEntries int
	// Workers is the layout-search worker budget, shared by ALL in-flight
	// requests (default: number of CPUs) — MaxConcurrent requests cannot
	// oversubscribe the machine MaxConcurrent-fold. Results are identical
	// at any width.
	Workers int
	// MaxStreams bounds how many online streams /observe may define
	// (default 8); each stream retains rolling profile windows and a
	// deployed layout.
	MaxStreams int
	// IngestQueue bounds the binary-observation ingest queue in frames
	// (default 1024). A batch that would overflow it is shed whole with
	// 429 + Retry-After; /v1/healthz counts sheds.
	IngestQueue int
	// ReadviseEvery, when positive, starts the background re-advise
	// tickers: every interval each defined stream runs a drift-gated
	// (never forced) re-advise on its owning shard, sharing the server's
	// search worker budget. Stop them with Close.
	ReadviseEvery time.Duration
	// Shards is the width of the tenant shard ring (default: number of
	// CPUs). Every stream is owned by exactly one shard — its binary
	// frames fold on that shard's ingest worker and its background
	// re-advises run on that shard's ticker — so tenants on different
	// shards never contend on the ingest hot path. Stream→shard assignment
	// is consistent hashing (internal/fleet), so advised state and
	// decisions are bit-identical at any shard count.
	Shards int
	// MemoEntries sizes the fleet-wide advise memo (default 128): initial
	// cold advises are memoized under (workload fingerprint, box, SLA,
	// alpha, granularity) with single-flight coalescing, so equal-workload
	// tenants share one search instead of repeating it per tenant.
	MemoEntries int
	// StreamTTL, when positive, enables idle-tenant eviction: a stream
	// idle (no observe/readvise) for at least the TTL is evicted — parked
	// out of the registry as it is, its slot freed — and moved back on its
	// next touch. A snapshot restore parks every stream it rebuilds. The
	// eviction janitor scans every StreamTTL/4 (at least every
	// millisecond). 0 disables eviction (streams live until shutdown).
	StreamTTL time.Duration
	// SnapshotDir, when set, enables durable snapshots of the online
	// plane (see snapshot.go): the server restores the newest valid
	// generation at construction, snapshots every SnapshotEvery, and
	// takes a final snapshot in Close.
	SnapshotDir string
	// SnapshotEvery is the periodic snapshot interval (default 10s;
	// meaningless without SnapshotDir).
	SnapshotEvery time.Duration
	// SnapshotKeep bounds the snapshot generations retained on disk
	// (default online.DefaultSnapshotKeep).
	SnapshotKeep int
	// SnapshotFS is the filesystem snapshots go through (default the real
	// one); tests and the crash harness inject faults here.
	SnapshotFS faultinject.FS
	// DrainTimeout bounds Close's ingest-queue drain: frames already
	// acknowledged with 202 get this long to fold before the worker stops
	// (default 10s).
	DrainTimeout time.Duration
	// Logf, when set, receives one line per background re-advise decision
	// (cmd/dotserve wires log.Printf). Nil silences the ticker.
	Logf func(format string, args ...any)
}

// degradeAfter is how many CONSECUTIVE snapshot failures flip the server
// into degraded mode: optimization endpoints shed with 503 + Retry-After
// (cached provisions still answer) until a snapshot succeeds again.
const degradeAfter = 3

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 8
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = 1024
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
	}
	if c.MemoEntries <= 0 {
		c.MemoEntries = 128
	}
	return c
}

// Server is the advisor service. Create one with New; it is safe for
// concurrent use.
type Server struct {
	cfg Config
	sem chan struct{}
	// budget is the layout-search worker budget shared across every
	// request's engines, so concurrent requests split — not multiply — the
	// configured evaluation width.
	budget   *search.Budget
	cache    *fleet.Memo
	start    time.Time
	served   atomic.Int64
	rejected atomic.Int64

	// Online streams (see online.go): defined by /observe, re-advised by
	// /readvise and the background ticker. The registry holds only defined
	// streams. It is a sync.Map so concurrent tenants' hot paths (observe an
	// existing stream, readvise) are lock-free Loads that never serialize on
	// each other; streamMu guards every insert and removal and the slot
	// accounting (streamN vs MaxStreams).
	streams   sync.Map // map[string]*stream
	streamMu  sync.Mutex
	streamN   int
	observed  atomic.Int64
	readvised atomic.Int64
	stop      chan struct{}
	closeOnce sync.Once

	// Binary-observation ingest plane (see frame.go, fleet.go): one bounded
	// queue + fold worker per shard; a frame is routed to its stream's
	// owning shard, so tenants on different shards fold without contending.
	// queued counts frames admitted but not yet folded across ALL shards;
	// admission is all-or-nothing per request against cfg.IngestQueue, and
	// overflow sheds with 429. Each shard channel's capacity is the full
	// cfg.IngestQueue, so an admitted batch's sends can never block even if
	// every frame targets one shard.
	shardQ     []chan ingestItem
	ingestOnce sync.Once
	queued     atomic.Int64
	ingested   atomic.Int64
	shed       atomic.Int64

	// Fleet plane (see fleet.go): the consistent-hash shard ring, the
	// fingerprint-keyed single-flight advise memo, and the idle-tenant
	// eviction state. parked holds evicted streams, guarded by streamMu
	// (it is registry state: a name is live in streams OR parked, never
	// both, and eviction and touch move the one *stream between them).
	ring           *fleet.Ring
	fleetMemo      *fleet.Memo
	parked         map[string]*stream
	evicted        atomic.Int64
	rematerialized atomic.Int64

	// Crash-safety plane (see snapshot.go): the generation store (nil when
	// snapshots are disabled), the snapshot serialization lock, and the
	// counters /v1/healthz and /v1/readyz surface. snapConsec is the
	// consecutive-failure count that gates degraded mode; draining flips
	// in Close before the queue flush so no new work is admitted while the
	// drain runs.
	snap       *online.Store
	snapMu     sync.Mutex
	snapGen    atomic.Uint64
	snapshots  atomic.Int64
	snapFails  atomic.Int64
	snapConsec atomic.Int64
	restored   atomic.Int64
	panics     atomic.Int64
	draining   atomic.Bool
	closeErr   error
}

// New builds a server. When cfg.SnapshotDir is set the newest valid
// snapshot generation is restored before the server takes traffic, and
// the periodic snapshot ticker starts; when cfg.ReadviseEvery is positive
// the background re-advise ticker starts. Stop both with Close.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		budget:    search.NewBudget(cfg.Workers),
		cache:     fleet.NewMemo(cfg.CacheEntries),
		start:     time.Now(),
		stop:      make(chan struct{}),
		shardQ:    make([]chan ingestItem, cfg.Shards),
		ring:      fleet.NewRing(cfg.Shards, 0),
		fleetMemo: fleet.NewMemo(cfg.MemoEntries),
		parked:    make(map[string]*stream),
	}
	for i := range s.shardQ {
		s.shardQ[i] = make(chan ingestItem, cfg.IngestQueue)
	}
	if cfg.SnapshotDir != "" {
		store, err := online.OpenStore(cfg.SnapshotDir, cfg.SnapshotFS, cfg.SnapshotKeep)
		if err != nil {
			// Durability was asked for and is unavailable: run, but refuse
			// new optimization work (degraded) until the operator intervenes.
			s.logf("serve: snapshot store unavailable, starting degraded: %v", err)
			s.snapFails.Add(1)
			s.snapConsec.Store(degradeAfter)
		} else {
			s.snap = store
			s.restoreSnapshot()
			// Snapshot itself logs failures, so the tick drops its error.
			go s.every(cfg.SnapshotEvery, func() { s.guard("snapshot ticker", func() { _, _ = s.Snapshot() }) })
		}
	}
	if cfg.ReadviseEvery > 0 {
		for i := 0; i < cfg.Shards; i++ {
			go s.every(cfg.ReadviseEvery, func() { s.readviseShard(i) })
		}
	}
	if cfg.StreamTTL > 0 {
		// The floor keeps a tiny TTL from handing time.NewTicker a
		// non-positive interval.
		go s.every(max(cfg.StreamTTL/4, time.Millisecond), func() { s.guard("evict janitor", s.evictIdle) })
	}
	return s
}

// Close drains and stops the server. It is a real drain, not a ticker
// stop: the server flips to draining (new optimization requests and
// ingest batches get 503 + Retry-After, code "draining"), frames already
// acknowledged with 202 are flushed through the fold worker under
// Config.DrainTimeout, the background tickers stop, and — when snapshots
// are enabled — a final snapshot captures the drained state. Close is
// idempotent; every call returns the first drain's outcome (nil, or an
// error naming what the deadline abandoned).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		// The fold worker keeps running until s.stop closes below, so the
		// queue can only shrink here: no new admissions while draining.
		deadline := time.Now().Add(s.cfg.DrainTimeout)
		for s.queued.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if q := s.queued.Load(); q > 0 {
			s.closeErr = fmt.Errorf("serve: drain deadline %v expired with %d acknowledged frames unfolded", s.cfg.DrainTimeout, q)
			s.logf("%v", s.closeErr)
		}
		close(s.stop)
		if s.snap != nil {
			if _, err := s.Snapshot(); err != nil {
				s.closeErr = errors.Join(s.closeErr, fmt.Errorf("serve: final snapshot: %w", err))
			}
		}
	})
	return s.closeErr
}

// every runs step on each tick of interval until Close: the one loop behind
// the snapshot, re-advise and eviction tickers.
func (s *Server) every(interval time.Duration, step func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			step()
		}
	}
}

// guard runs a background-goroutine step, containing any panic: the panic
// is counted (surfaced as "panics" in /v1/healthz), logged, and the
// goroutine lives on — mirroring bounded()'s per-request recovery so a
// panicking estimator or decoder cannot kill the whole server.
func (s *Server) guard(what string, fn func()) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.logf("serve: panic in %s recovered: %v", what, p)
		}
	}()
	fn()
}

// refuseState names why the server refuses new optimization work:
// "draining" once Close has begun, "degraded" after degradeAfter
// consecutive snapshot failures, "" when accepting.
func (s *Server) refuseState() string {
	if s.draining.Load() {
		return "draining"
	}
	if s.snapConsec.Load() >= degradeAfter {
		return "degraded"
	}
	return ""
}

// refuseErr renders a refuse state as the client-visible error.
func (s *Server) refuseErr(state string) error {
	if state == "draining" {
		return errors.New("server draining: shutting down, no new work accepted")
	}
	return fmt.Errorf("server degraded: %d consecutive snapshot failures, refusing new optimization work until durability recovers", s.snapConsec.Load())
}

// Route is one row of the service's route table.
type Route struct {
	// Method is the HTTP method the route answers.
	Method string
	// Path is the route's (v1) path.
	Path string
}

// Routes returns the service's static route table — the single source of
// truth Handler mounts and scripts/routelint checks OPERATIONS.md against.
func Routes() []Route {
	return []Route{
		{Method: "GET", Path: "/v1/healthz"},
		{Method: "GET", Path: "/v1/readyz"},
		{Method: "GET", Path: "/v1/fleet"},
		{Method: "POST", Path: "/v1/advise"},
		{Method: "POST", Path: "/v1/provision"},
		{Method: "POST", Path: "/v1/observe"},
		{Method: "POST", Path: "/v1/readvise"},
	}
}

// Handler returns the routed HTTP handler: every Routes() entry mounted on
// its v1 path.
func (s *Server) Handler() http.Handler {
	handlers := map[string]http.HandlerFunc{
		"/v1/healthz":   s.handleHealthz,
		"/v1/readyz":    s.handleReadyz,
		"/v1/fleet":     s.handleFleet,
		"/v1/advise":    s.bounded(s.handleAdvise),
		"/v1/provision": s.boundedWith(s.handleProvision, s.provisionCached),
		"/v1/observe":   s.observeRouted(),
		"/v1/readvise":  s.bounded(s.handleReadvise),
	}
	mux := http.NewServeMux()
	for _, rt := range Routes() {
		h, ok := handlers[rt.Path]
		if !ok {
			panic("serve: route " + rt.Path + " has no handler")
		}
		mux.HandleFunc(rt.Method+" "+rt.Path, h)
	}
	return mux
}

// observeRouted is /v1/observe's content negotiation: JSON observations run
// the synchronous define/drift path under the optimization gate; binary
// frame batches (Content-Type: application/x-dot-extents) take the async
// bounded-queue ingest path, which never holds an optimization slot.
func (s *Server) observeRouted() http.HandlerFunc {
	jsonPath := s.bounded(s.handleObserve)
	return func(w http.ResponseWriter, r *http.Request) {
		if isFrameContent(r.Header.Get("Content-Type")) {
			s.handleObserveFrames(w, r)
			return
		}
		jsonPath(w, r)
	}
}

// maxBodyBytes caps request bodies; profiles are per-object aggregates, so
// even wide schemas fit comfortably.
const maxBodyBytes = 8 << 20

// exactBodyBytes bounds the declared Content-Length readBody allocates for
// before any byte arrives. It covers real frame batches and JSON requests
// (tens of KB); a client that declares the whole cap and stalls pins no more
// than this.
const exactBodyBytes = 64 << 10

// readBody reads a request body of at most maxBodyBytes. A body whose
// declared Content-Length is within exactBodyBytes is read into one buffer
// of exactly that size — io.ReadAll would grow one through a chain of
// copies — and one that ends early is an error; any other body goes through
// io.ReadAll, which grows only as bytes arrive and whose MaxBytesReader
// refuses it past the cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= exactBodyBytes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// apiError is the unified error envelope every endpoint answers failures
// with: {error, code, failure?}. Code is a stable machine-readable reason
// (see errorCode); Failure carries the advisor's infeasibility diagnostic.
type apiError struct {
	Error string `json:"error"`
	// Code names the failure class machine-readably: bad_request,
	// not_found, conflict, infeasible, stream_capacity, shed, saturated,
	// timeout, internal.
	Code string `json:"code,omitempty"`
	// Failure carries the advisor's infeasibility diagnostic when one is
	// known — the same provision.InfeasibilityReason text sweeps attach per
	// candidate — so clients of a failed optimization see WHY (over
	// capacity vs SLA unmet), not just that it failed.
	Failure string `json:"failure,omitempty"`
}

// failureError pairs an error with the client-visible infeasibility
// diagnostic; bounded() lifts it into apiError.Failure.
type failureError struct {
	err     error
	failure string
}

func (e *failureError) Error() string { return e.err.Error() }
func (e *failureError) Unwrap() error { return e.err }

// codedError overrides the envelope code derived from the HTTP status —
// for statuses that carry more than one failure class (429 is both "too
// many streams" and "ingest queue shed").
type codedError struct {
	code string
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// errorCode maps a response status (and an optional codedError override)
// onto the envelope's stable code.
func errorCode(status int, err error) string {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusUnprocessableEntity:
		return "infeasible"
	case http.StatusTooManyRequests:
		return "stream_capacity"
	case http.StatusServiceUnavailable:
		return "saturated"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// writeError writes the unified error envelope for a failed request.
func writeError(w http.ResponseWriter, status int, err error) {
	e := apiError{Error: err.Error(), Code: errorCode(status, err)}
	var fe *failureError
	if errors.As(err, &fe) {
		e.Failure = fe.failure
	}
	writeJSON(w, status, e)
}

// bounded wraps an optimization handler with the concurrency gate and the
// per-request timeout. The request body is read on the request goroutine
// (net/http forbids touching it once ServeHTTP returns); the optimization
// then runs on a separate goroutine that owns the concurrency slot until it
// finishes, so an abandoned (timed-out) search cannot stack unbounded work
// behind the gate. Handler panics are contained to a 500 for that request.
func (s *Server) bounded(fn func(body []byte) (any, int, error)) http.HandlerFunc {
	return s.boundedWith(fn, nil)
}

// boundedWith is bounded plus the drain/degradation gate. While the
// server refuses new optimization work the request gets 503 +
// Retry-After with code "draining" or "degraded" — except that a
// degraded server still answers from cache when cached(body) hits: a
// cached answer needs neither a new search nor durability, so it stays
// available while snapshots fail.
func (s *Server) boundedWith(fn func(body []byte) (any, int, error), cached func(body []byte) (any, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Read the body BEFORE taking a concurrency slot: a client trickling
		// its upload must not park an optimization slot (the server's
		// ReadTimeout bounds the upload itself).
		body, err := readBody(w, r)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
			return
		}
		if state := s.refuseState(); state != "" {
			if state == "degraded" && cached != nil {
				if v, ok := cached(body); ok {
					writeJSON(w, http.StatusOK, v)
					return
				}
			}
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, &codedError{code: state, err: s.refuseErr(state)})
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.rejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, errors.New("server saturated: too many concurrent optimizations"))
			return
		}
		s.served.Add(1)
		type outcome struct {
			v      any
			status int
			err    error
		}
		done := make(chan outcome, 1)
		go func() {
			defer func() { <-s.sem }()
			defer func() {
				if p := recover(); p != nil {
					done <- outcome{status: http.StatusInternalServerError, err: fmt.Errorf("internal error: %v", p)}
				}
			}()
			v, status, err := fn(body)
			done <- outcome{v: v, status: status, err: err}
		}()
		timeout := time.NewTimer(s.cfg.RequestTimeout)
		defer timeout.Stop()
		select {
		case out := <-done:
			if out.err != nil {
				writeError(w, out.status, out.err)
				return
			}
			writeJSON(w, out.status, out.v)
		case <-timeout.C:
			writeError(w, http.StatusGatewayTimeout, fmt.Errorf("optimization exceeded the %v request timeout", s.cfg.RequestTimeout))
		case <-r.Context().Done():
			// Client went away; nothing useful to write.
		}
	}
}

func decode[T any](body []byte) (T, error) {
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("bad request body: %w", err)
	}
	return v, nil
}

func validSLA(sla float64) error {
	if sla <= 0 || sla > 1 {
		return fmt.Errorf("sla must be in (0, 1], got %g", sla)
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.streamMu.Lock()
	streams := s.streamN
	s.streamMu.Unlock()
	// Liveness stays 200 even while draining or degraded — the process is
	// alive and must not be restarted by an orbiting supervisor; readiness
	// (should this instance get NEW work?) is /v1/readyz's question.
	status := "ok"
	if state := s.refuseState(); state != "" {
		status = state
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:         status,
		UptimeSeconds:  int64(time.Since(s.start).Seconds()),
		Served:         s.served.Load(),
		CacheHits:      s.cache.Hits(),
		Rejected:       s.rejected.Load(),
		Streams:        streams,
		Observed:       s.observed.Load(),
		ReAdvised:      s.readvised.Load(),
		Queued:         s.queued.Load(),
		Ingested:       s.ingested.Load(),
		Shed:           s.shed.Load(),
		Panics:         s.panics.Load(),
		Snapshots:      s.snapshots.Load(),
		SnapshotFails:  s.snapFails.Load(),
		SnapshotGen:    s.snapGen.Load(),
		Restored:       s.restored.Load(),
		Shards:         s.cfg.Shards,
		MemoHits:       s.fleetMemo.Hits(),
		MemoMisses:     s.fleetMemo.Misses(),
		Evicted:        s.evicted.Load(),
		Rematerialized: s.rematerialized.Load(),
	})
}

// handleReadyz is the readiness probe, split from liveness: 200 while the
// server accepts new optimization work, 503 + Retry-After while draining
// (Close has begun) or degraded (snapshots persistently failing). Load
// balancers route on this; healthz keeps answering 200 so the process is
// not killed mid-drain.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state := s.refuseState()
	if state == "" {
		writeJSON(w, http.StatusOK, ReadyResponse{Ready: true, State: "ready"})
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{
		Ready:  false,
		State:  state,
		Reason: s.refuseErr(state).Error(),
	})
}

func (s *Server) handleAdvise(body []byte) (any, int, error) {
	req, err := decode[AdviseRequest](body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	comp, err := compileWorkload(req.Workload)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	tg, err := parseTarget(comp, req.SLA, req.Box, req.Classes, req.Granularity, req.Alpha)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	replication := core.ReplicationConfig{Enabled: req.Replication, MaxReplicas: req.MaxReplicas}
	if replication.Cap() > 1 && req.Alpha != 0 {
		return nil, http.StatusBadRequest,
			fmt.Errorf("replication prices only the paper's linear cost model; drop alpha %g", req.Alpha)
	}
	in, err := comp.input(tg.box, s.budget)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	// Granularity (which catalog the search places) and replication (how
	// many copies of a unit it may place) are orthogonal: set the cap, lower
	// the input, and one search and one response serve all four requests.
	in.Replication = replication
	resp := AdviseResponse{Granularity: tg.granularity}
	if tg.pt != nil {
		// The input is lowered onto the heat-based unit catalog built from
		// the request's declared extents; the layout renders under unit
		// names.
		if in, err = in.Partitioned(tg.pt); err != nil {
			return nil, http.StatusBadRequest, err
		}
		resp.Units = tg.pt.NumUnits()
	}
	in.LayoutCost = tg.layoutCost
	opts := core.Options{RelativeSLA: req.SLA}
	// The greedy DOT passes by default, the exhaustive branch-and-bound
	// enumeration when asked for the provable optimum.
	search := core.OptimizeBest
	if req.Exhaustive {
		search = core.Exhaustive
	}
	res, err := search(in, opts)
	if err != nil {
		// A failed (errored) optimization carries the capacity diagnosis
		// only, when it names a concrete problem. The SLA-unmet diagnosis is
		// deliberately not attached: it claims "no evaluated layout satisfied
		// the relative SLA", which is not something an errored run
		// established — there the error itself is the diagnosis. (Infeasible
		// but successful runs report the full InfeasibilityReason in their
		// 200 body.) The catalog is the one the search ran on — the unit
		// catalog at partition granularity, where an object too big for
		// every class may still fit split.
		return nil, http.StatusUnprocessableEntity,
			&failureError{err: err, failure: provision.CapacityInfeasibility(in.Cat, tg.box)}
	}
	resp.Feasible = res.Feasible
	resp.TOCCents = res.TOCCents
	resp.Evaluated = res.Evaluated
	resp.EstimatorCalls = res.EstimatorCalls
	resp.PlanMillis = float64(res.PlanTime) / float64(time.Millisecond)
	resp.Search = searchStatsOut(res.Search)
	if !res.Feasible {
		resp.Failure = provision.InfeasibilityReason(in.Cat, tg.box, opts)
		return resp, http.StatusOK, nil
	}
	resp.ElapsedMillis = float64(res.Metrics.Elapsed) / float64(time.Millisecond)
	resp.ThroughputPerHour = res.Metrics.Throughput
	if res.Layout != nil {
		resp.Layout = renderLayout(in.Cat, res.Layout)
		if tg.pt != nil {
			resp.SplitObjects = tg.pt.SplitObjects(res.Layout)
		}
	}
	if req.Replication {
		resp.Replicas = renderSetLayout(in.Cat, res.SetLayout)
		resp.MaxCopies = res.MaxCopies()
		resp.ReplicatedCopies = res.ReplicatedCopies()
	}
	return resp, http.StatusOK, nil
}

// searchStatsOut lifts a result's enumeration stats onto the wire, or nil
// when no exhaustive walk ran (the greedy optimizer's searches leave every
// space-level counter zero, so the field stays off the JSON).
func searchStatsOut(st search.EnumStats) *SearchStatsOut {
	if st.SpaceSize == 0 && st.BoundPruned == 0 && st.Groups == 0 {
		return nil
	}
	return &SearchStatsOut{
		Candidates:     st.Candidates,
		BoundPruned:    st.BoundPruned,
		Groups:         st.Groups,
		GroupedUnits:   st.GroupedUnits,
		SpaceSize:      st.SpaceSize,
		CanonicalSize:  st.CanonicalSize,
		RootFloorCents: st.RootFloorCents,
	}
}

// provisionParams is a provision request parsed to its cache-relevant
// parts: parseProvision is the single decoder both the live handler and
// the degraded-mode cache probe run, so the two can never key the cache
// differently.
type provisionParams struct {
	req         ProvisionRequest
	grid        provision.Grid
	comp        *compiled
	granularity string
	key         string
}

// parseProvision validates a provision request body and derives its cache
// key. Keyed on the PARSED granularity, not the raw string: "" and
// "object" are the same request and must share a cache entry.
func parseProvision(body []byte) (*provisionParams, error) {
	req, err := decode[ProvisionRequest](body)
	if err != nil {
		return nil, err
	}
	if err := validSLA(req.SLA); err != nil {
		return nil, err
	}
	grid, err := parseGrid(req.Grid)
	if err != nil {
		return nil, err
	}
	comp, err := compileWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	gran, err := parseGranularity(req.Granularity)
	if err != nil {
		return nil, err
	}
	return &provisionParams{
		req:         req,
		grid:        grid,
		comp:        comp,
		granularity: gran,
		key:         fmt.Sprintf("%s|%s|%g|%s", comp.fingerprint(), grid.Key(), req.SLA, gran),
	}, nil
}

// provisionCached probes the sweep cache for a request without running any
// optimization — the degraded-mode path: a degraded server keeps
// answering provisions it has already computed.
func (s *Server) provisionCached(body []byte) (any, bool) {
	p, err := parseProvision(body)
	if err != nil {
		return nil, false
	}
	v, ok := s.cache.Get(p.key)
	if !ok {
		return nil, false
	}
	resp := *v.(*ProvisionResponse)
	resp.Cached = true
	return resp, true
}

// handleProvision answers a sweep from the cache or runs it; concurrent
// misses on one key share a single sweep (fleet.Memo's single flight), and
// a failed sweep is never cached.
func (s *Server) handleProvision(body []byte) (any, int, error) {
	p, err := parseProvision(body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	status := http.StatusOK
	v, hit, err := s.cache.Do(p.key, func() (any, error) {
		resp, code, err := s.sweep(p)
		status = code
		return resp, err
	})
	if err != nil {
		return nil, status, err
	}
	resp := *v.(*ProvisionResponse)
	resp.Cached = hit
	return resp, http.StatusOK, nil
}

// sweep runs one provisioning sweep and renders its response.
func (s *Server) sweep(p *provisionParams) (*ProvisionResponse, int, error) {
	req, grid, comp := p.req, p.grid, p.comp
	base, err := comp.input(grid.Universe(), s.budget)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	opts := core.Options{RelativeSLA: req.SLA}
	if p.granularity == "partition" {
		// Lowered once onto the heat-based unit catalog: the whole grid sweeps
		// over per-unit placements, and layouts render under unit names.
		pt, err := comp.partitioning()
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		if base, err = base.Partitioned(pt); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	choice, err := provision.SweepConfigurations(base, grid, opts)
	if err != nil {
		// Capacity diagnosis only, as in handleAdvise.
		return nil, http.StatusUnprocessableEntity,
			&failureError{err: err, failure: provision.CapacityInfeasibility(base.Cat, grid.Universe())}
	}
	resp := &ProvisionResponse{
		Best:           choice.Best,
		Evaluated:      choice.Evaluated,
		EstimatorCalls: choice.EstimatorCalls,
	}
	for _, cr := range choice.Results {
		out := CandidateOut{
			Name:     cr.Name,
			Feasible: cr.Result.Feasible,
			Failure:  cr.Failure,
			TOCCents: cr.Result.TOCCents,
			Alpha:    cr.Spec.Alpha,
		}
		if cr.Result.Feasible {
			out.Layout = renderLayout(base.Cat, cr.Result.Layout)
		}
		resp.Candidates = append(resp.Candidates, out)
	}
	return resp, http.StatusOK, nil
}
