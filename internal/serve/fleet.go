// Fleet plane: the serve half of multi-tenant operation. Every stream
// (tenant) is owned by exactly one shard of a consistent-hash ring
// (internal/fleet) — its binary frames fold on that shard's ingest worker
// and its background re-advises run on that shard's ticker — so tenants on
// different shards never contend on the hot path, while stream state and
// decisions stay bit-identical at any shard count. Initial cold advises go
// through a fleet-wide single-flight memo keyed by (workload fingerprint,
// box, SLA, alpha, granularity): equal-workload tenants share one search.
// GET /v1/fleet reports per-tenant rollups; an optional TTL janitor evicts
// idle tenants to parked snapshot records and rematerializes them on touch.
package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dotprov/internal/device"
)

// TenantRollup is one tenant's row in the /v1/fleet report.
type TenantRollup struct {
	// Stream is the tenant's stream name; Shard is its owning shard on the
	// ring (frames fold and ticker re-advises run there).
	Stream string `json:"stream"`
	Shard  int    `json:"shard"`
	// State is the tenant's lifecycle state: "active" (initialized, advised),
	// "defining" (created but no feasible initial advise yet), or "evicted"
	// (idle past StreamTTL, parked as a snapshot record until touched).
	State       string  `json:"state"`
	Granularity string  `json:"granularity,omitempty"`
	SLA         float64 `json:"sla,omitempty"`
	// Windows/Checks/Drifts/ReAdvises are the tenant's lifetime manager
	// counters; Drifted reports whether its drift detector has ever fired.
	Windows   int64 `json:"windows,omitempty"`
	Checks    int64 `json:"checks,omitempty"`
	Drifts    int64 `json:"drifts,omitempty"`
	ReAdvises int64 `json:"readvises,omitempty"`
	Drifted   bool  `json:"drifted,omitempty"`
	// SLAAttained reports the tenant's last decision was feasible — its
	// deployed layout meets the configured SLA under the profile it was
	// optimized for. LastDecision names that decision ("advise",
	// "readvise", "confirmed"); TOCCents is its objective value.
	SLAAttained  bool    `json:"sla_attained"`
	LastDecision string  `json:"last_decision,omitempty"`
	TOCCents     float64 `json:"toc_cents,omitempty"`
	// StorageCentsPerHour prices the deployed layout's storage footprint.
	StorageCentsPerHour float64 `json:"storage_cents_per_hour,omitempty"`
	// MemoHit reports the tenant's initial advise was answered by the
	// fleet memo (another equal-workload tenant's search) instead of
	// running its own.
	MemoHit bool `json:"memo_hit,omitempty"`
}

// FleetResponse is the /v1/fleet body: fleet-wide counters plus one rollup
// per tenant in the requested page, sorted by stream name.
type FleetResponse struct {
	// Tenants counts every known tenant (active + defining + evicted);
	// Active and Evicted split it. Shards is the ring width.
	Tenants int `json:"tenants"`
	Active  int `json:"active"`
	Evicted int `json:"evicted"`
	Shards  int `json:"shards"`
	// MemoHits / MemoMisses are the fleet advise memo's lifetime totals.
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
	// Offset and Limit echo the applied pagination window.
	Offset  int            `json:"offset"`
	Limit   int            `json:"limit"`
	Rollups []TenantRollup `json:"rollups"`
}

// fleetLimitMax caps one /v1/fleet page; fleetLimitDefault applies when the
// request names no limit.
const (
	fleetLimitMax     = 1000
	fleetLimitDefault = 100
)

// handleFleet serves GET /v1/fleet: per-tenant rollups, paginated by
// ?offset=&limit= and sorted by stream name, or a single tenant via
// ?stream= (404 with the unified error envelope when unknown).
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	offset, err := fleetQueryInt(q.Get("offset"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("offset: %w", err))
		return
	}
	limit, err := fleetQueryInt(q.Get("limit"), fleetLimitDefault)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("limit: %w", err))
		return
	}
	if limit < 1 || limit > fleetLimitMax {
		writeError(w, http.StatusBadRequest, fmt.Errorf("limit must be in [1, %d], got %d", fleetLimitMax, limit))
		return
	}

	if name := q.Get("stream"); name != "" {
		ru, ok := s.tenantRollup(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown stream %q (define it with /observe first)", name))
			return
		}
		writeJSON(w, http.StatusOK, s.fleetResponse([]TenantRollup{ru}, 0, limit, 1))
		return
	}

	rollups, active := s.allRollups()
	total := len(rollups)
	lo := offset
	if lo > total {
		lo = total
	}
	hi := lo + limit
	if hi > total {
		hi = total
	}
	resp := s.fleetResponse(rollups[lo:hi], offset, limit, total)
	resp.Active = active
	resp.Evicted = total - active
	writeJSON(w, http.StatusOK, resp)
}

// fleetResponse assembles the envelope around a page of rollups.
func (s *Server) fleetResponse(page []TenantRollup, offset, limit, total int) FleetResponse {
	return FleetResponse{
		Tenants:    total,
		Shards:     s.cfg.Shards,
		MemoHits:   s.fleetMemo.Hits(),
		MemoMisses: s.fleetMemo.Misses(),
		Offset:     offset,
		Limit:      limit,
		Rollups:    page,
	}
}

// fleetQueryInt parses a non-negative integer query parameter, "" selecting
// the default.
func fleetQueryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("not an integer: %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("must be >= 0, got %d", v)
	}
	return v, nil
}

// allRollups collects every tenant's rollup — live streams plus parked
// (evicted) records — sorted by stream name, and counts the live ones.
func (s *Server) allRollups() (rollups []TenantRollup, active int) {
	for _, st := range s.snapshotStreams() {
		rollups = append(rollups, st.rollup())
	}
	active = len(rollups)
	s.streamMu.Lock()
	for name := range s.parked {
		rollups = append(rollups, TenantRollup{Stream: name, Shard: s.ring.Shard(name), State: "evicted"})
	}
	s.streamMu.Unlock()
	sort.Slice(rollups, func(i, j int) bool { return rollups[i].Stream < rollups[j].Stream })
	return rollups, active
}

// tenantRollup builds one named tenant's rollup; ok is false when the name
// is neither live nor parked.
func (s *Server) tenantRollup(name string) (TenantRollup, bool) {
	if st := s.lookupLive(name); st != nil {
		return st.rollup(), true
	}
	s.streamMu.Lock()
	_, parked := s.parked[name]
	s.streamMu.Unlock()
	if parked {
		return TenantRollup{Stream: name, Shard: s.ring.Shard(name), State: "evicted"}, true
	}
	return TenantRollup{}, false
}

// rollup snapshots one live stream's row.
func (st *stream) rollup() TenantRollup {
	ru := TenantRollup{Stream: st.name, Shard: st.shard}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.mgr == nil {
		ru.State = "defining"
		return ru
	}
	ru.State = "active"
	ru.Granularity = st.granularity()
	ru.SLA = st.mgr.SLA()
	stats := st.mgr.Stats()
	ru.Windows = stats.WindowsClosed
	ru.Checks = stats.Checks
	ru.Drifts = stats.Drifts
	ru.ReAdvises = stats.ReAdvises
	ru.Drifted = stats.Drifts > 0
	ru.SLAAttained = st.lastFeasible
	ru.LastDecision = st.lastKind
	ru.TOCCents = st.lastTOC
	ru.MemoHit = st.memoHit
	if cost, err := st.mgr.CurrentSetLayout().CostCentsPerHour(searchCatalog(st.comp, st.pt), st.mgr.Box()); err == nil {
		ru.StorageCentsPerHour = cost
	}
	return ru
}

// noteDecision records a decision summary for /v1/fleet rollups. Callers
// hold st.mu.
func (st *stream) noteDecision(kind string, feasible bool, tocCents float64) {
	st.lastKind = kind
	st.lastFeasible = feasible
	st.lastTOC = tocCents
}

// touch stamps the stream's idle clock for the eviction janitor.
func (st *stream) touch() { st.lastTouch.Store(time.Now().UnixNano()) }

// fleetMemoKey derives the fleet advise memo's key for a defining observe:
// everything the initial cold search depends on. Two streams with equal
// keys compile identical catalogs (object IDs are assigned in declaration
// order), so one memoized result's layout is valid for both.
func fleetMemoKey(comp *compiled, box *device.Box, req ObserveRequest) string {
	gran := "object"
	if req.Granularity == "partition" {
		gran = "partition"
	}
	return fmt.Sprintf("%s|%s|%g|%g|%s", comp.fingerprint(), boxKey(box), req.SLA, req.Alpha, gran)
}

// boxKey canonicalizes a box for memo keying: its name plus the ordered
// device class list (a "custom" box's identity is its classes).
func boxKey(b *device.Box) string {
	parts := make([]string, 0, len(b.Devices)+1)
	parts = append(parts, b.Name)
	for _, d := range b.Devices {
		parts = append(parts, d.Class.String())
	}
	return strings.Join(parts, ",")
}

// evictIdle evicts every initialized stream idle for at least StreamTTL,
// least recently touched first (the LRU order), parking each as a snapshot
// record. Evicted tenants keep surviving restarts — exportPayload merges
// parked records into disk snapshots — and rematerialize on their next
// touch.
func (s *Server) evictIdle() {
	cutoff := time.Now().Add(-s.cfg.StreamTTL).UnixNano()
	var idle []*stream
	s.streams.Range(func(_, v any) bool {
		st := v.(*stream)
		if t := st.lastTouch.Load(); t > 0 && t < cutoff {
			idle = append(idle, st)
		}
		return true
	})
	sort.Slice(idle, func(i, j int) bool { return idle[i].lastTouch.Load() < idle[j].lastTouch.Load() })
	for _, st := range idle {
		s.evictStream(st)
	}
}

// evictStream parks one stream: its state is exported to a snapshot record,
// the registry slot freed. A frame already admitted for the stream may
// still fold into the orphaned manager after the export — that window is
// lost on rematerialization, a bounded, documented cost of eviction (the
// same window would be lost to a crash; the ingest path stays lock-free).
func (s *Server) evictStream(st *stream) {
	rec, ok := st.record()
	if !ok {
		return
	}
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if v, ok := s.streams.Load(st.name); !ok || v.(*stream) != st {
		return // a racing re-definition owns the name now
	}
	s.streams.Delete(st.name)
	s.streamN--
	s.parked[st.name] = rec
	s.evicted.Add(1)
}

// rematerializeLocked revives a parked stream record: the stream is rebuilt
// through the exact snapshot-recovery path and re-registered, resuming
// drift detection mid-window with its deployed layout and reference
// intact. Callers hold streamMu; the parked record is consumed only on
// success.
func (s *Server) rematerializeLocked(name string) (*stream, error) {
	rec, ok := s.parked[name]
	if !ok {
		return nil, nil
	}
	if s.streamN >= s.cfg.MaxStreams {
		return nil, &codedError{code: "stream_capacity",
			err: fmt.Errorf("stream capacity reached (%d); evicted stream %q cannot rematerialize until a slot frees", s.cfg.MaxStreams, name)}
	}
	st, err := s.rebuildStream(rec)
	if err != nil {
		return nil, fmt.Errorf("rematerializing evicted stream %q: %w", name, err)
	}
	st.touch()
	delete(s.parked, name)
	s.streams.Store(name, st)
	s.streamN++
	s.rematerialized.Add(1)
	return st, nil
}

// lookupLive returns the named registered stream without rematerializing,
// nil when absent.
func (s *Server) lookupLive(name string) *stream {
	if v, ok := s.streams.Load(name); ok {
		return v.(*stream)
	}
	return nil
}
