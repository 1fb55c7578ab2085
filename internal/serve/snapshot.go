// Durable snapshots of the online plane — the serve half; the per-stream
// manager-state codec and the generation store live in internal/online.
//
// A snapshot captures every defined stream: its defining observe
// request (the raw JSON body, so recovery replays the exact configuration
// path), its pinned object fingerprint, and its manager state (deployed
// layout, drift reference, rolling windows, extent histograms) — plus the
// durable server counters. The payload codec is canonical and strict in
// the binary frame decoder's spirit: streams are sorted by name, every
// scalar is validated, and a decoded payload re-encodes bit-identically
// (FuzzDecodeSnapshot asserts it), so equal state always produces equal
// bytes.
//
// Recovery is all-or-nothing per generation: every stream of a payload is
// rebuilt before any is registered, so a generation that fails ANY check
// leaves zero state behind and the store falls back to the previous
// generation exactly as it does for a torn file.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"dotprov/internal/online"
)

// snapshotPayload is the online plane's durable state: the counters that
// survive a restart and one record per defined stream.
type snapshotPayload struct {
	observed  int64
	readvised int64
	ingested  int64
	shed      int64
	streams   []streamRecord
}

// streamRecord is one stream's snapshot: its name, the pinned object
// fingerprint, the raw defining observe request (JSON), and the decoded
// manager state.
type streamRecord struct {
	name   string
	objFP  string
	config []byte
	state  online.ManagerState
}

// record captures the stream as a snapshot record.
func (st *stream) record() streamRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	return streamRecord{name: st.name, objFP: st.objFP, config: st.cfgJSON, state: st.mgr.ExportState()}
}

// streamRecordMinBytes is the smallest wire size of one stream record:
// four length prefixes. Guards the count-based allocation below.
const streamRecordMinBytes = 4 * 4

// appendSnapshotPayload encodes a payload in its canonical wire form:
//
//	i64 observed, readvised, ingested, shed (all >= 0)
//	u32 stream count
//	per stream (names strictly ascending):
//	  u32-length-prefixed name, object fingerprint, defining observe
//	  request (JSON), and online.AppendManagerState blob
func appendSnapshotPayload(dst []byte, p snapshotPayload) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.observed))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.readvised))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.ingested))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.shed))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.streams)))
	for _, rec := range p.streams {
		dst = appendBlob(dst, []byte(rec.name))
		dst = appendBlob(dst, []byte(rec.objFP))
		dst = appendBlob(dst, rec.config)
		dst = appendBlob(dst, online.AppendManagerState(nil, rec.state))
	}
	return dst
}

// appendBlob appends a u32 length prefix and the bytes.
func appendBlob(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// decodeSnapshotPayload is appendSnapshotPayload's strict inverse, read
// through online.Reader like the record it embeds: a payload either decodes
// to state that re-encodes bit-identically or is rejected whole
// (truncation, trailing bytes, negative counters, unsorted or empty stream
// names, non-JSON configs, and every manager-state defect
// online.DecodeManagerState rejects).
func decodeSnapshotPayload(b []byte) (snapshotPayload, error) {
	var p snapshotPayload
	r := online.NewReader(b)
	p.observed = r.NamedNonNegI64("observed")
	p.readvised = r.NamedNonNegI64("readvised")
	p.ingested = r.NamedNonNegI64("ingested")
	p.shed = r.NamedNonNegI64("shed")
	n := int(r.NamedU32("stream count"))
	if r.Err() != nil {
		return p, r.Err()
	}
	if n*streamRecordMinBytes > r.Rest() {
		return p, fmt.Errorf("declares %d streams, %d bytes remain", n, r.Rest())
	}
	prev := ""
	for i := 0; i < n; i++ {
		rec, err := readStreamRecord(r)
		if err != nil {
			return p, fmt.Errorf("stream %d: %w", i, err)
		}
		if rec.name <= prev && i > 0 {
			return p, fmt.Errorf("stream %d: name %q not strictly ascending after %q", i, rec.name, prev)
		}
		prev = rec.name
		p.streams = append(p.streams, rec)
	}
	if r.Rest() != 0 {
		return p, fmt.Errorf("%d trailing payload bytes", r.Rest())
	}
	return p, nil
}

// readStreamRecord decodes one stream record at the reader's position. The
// reader keeps the first failure, so each field is read and judged in wire
// order and a refusal after a failed read changes nothing.
func readStreamRecord(r *online.Reader) (streamRecord, error) {
	var rec streamRecord
	if rec.name = string(r.Blob("name")); rec.name == "" {
		r.Fail(errors.New("empty stream name"))
	}
	if rec.objFP = string(r.Blob("object fingerprint")); rec.objFP == "" {
		r.Fail(errors.New("empty object fingerprint"))
	}
	if rec.config = r.Blob("defining observe"); !json.Valid(rec.config) {
		r.Fail(errors.New("defining observe is not valid JSON"))
	}
	if state := r.Blob("manager state"); r.Err() == nil {
		var err error
		if rec.state, err = online.DecodeManagerState(state); err != nil {
			r.Fail(fmt.Errorf("manager state: %w", err))
		}
	}
	return rec, r.Err()
}

// exportPayload assembles the snapshot payload from live state: every
// stream, registered or parked (idle-evicted), sorted by name for the
// canonical byte form, plus the durable counters. Parked streams are
// included, so evicted tenants survive restarts exactly like live ones.
func (s *Server) exportPayload() snapshotPayload {
	p := snapshotPayload{
		observed:  s.observed.Load(),
		readvised: s.readvised.Load(),
		ingested:  s.ingested.Load(),
		shed:      s.shed.Load(),
	}
	all, _ := s.tenants()
	for _, st := range all {
		p.streams = append(p.streams, st.record())
	}
	sort.Slice(p.streams, func(i, j int) bool { return p.streams[i].name < p.streams[j].name })
	return p
}

// Snapshot captures the online plane and publishes it as the next
// snapshot generation, returning the generation written. One snapshot
// runs at a time (the ticker, Close's final snapshot and manual callers
// all serialize here); failures feed the consecutive-failure count that
// gates degraded mode, and any success resets it. Errors when snapshots
// are not enabled (no Config.SnapshotDir).
func (s *Server) Snapshot() (uint64, error) {
	if s.snap == nil {
		return 0, errors.New("serve: snapshots are not enabled (no SnapshotDir)")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	gen, err := s.snap.Write(appendSnapshotPayload(nil, s.exportPayload()))
	if err != nil {
		s.snapFails.Add(1)
		n := s.snapConsec.Add(1)
		s.logf("serve: snapshot failed (%d consecutive): %v", n, err)
		return 0, err
	}
	s.snapshots.Add(1)
	s.snapConsec.Store(0)
	s.snapGen.Store(gen)
	return gen, nil
}

// restoreSnapshot restores the newest valid snapshot generation at boot.
// No snapshot at all is a fresh start; a recovery failure (every
// generation torn, corrupt, or rejected) is logged loudly and the server
// starts fresh rather than refusing to boot — the operator sees it in
// the log and in snapshot_generation staying 0.
func (s *Server) restoreSnapshot() {
	gen, err := s.snap.Load(func(gen uint64, payload []byte) error {
		p, err := decodeSnapshotPayload(payload)
		if err != nil {
			return err
		}
		return s.applySnapshot(p)
	})
	if errors.Is(err, online.ErrNoSnapshot) {
		s.logf("serve: no snapshot in %s, starting fresh", s.snap.Dir())
		return
	}
	if err != nil {
		s.logf("serve: snapshot recovery failed, starting fresh: %v", err)
		return
	}
	s.snapGen.Store(gen)
	s.logf("serve: restored snapshot generation %d (%d streams)", gen, s.restored.Load())
}

// applySnapshot commits one decoded generation: every stream is rebuilt
// FIRST, then all are registered — or, with idle eviction on, all parked —
// so a generation whose any stream fails to rebuild (schema drift since the
// snapshot, a box the binary no longer knows) rejects whole with zero state
// left behind, and Store.Load falls back to the previous generation.
// Parking takes no slot, so with eviction on a fleet larger than MaxStreams
// (possible, since evicted tenants free their slots) restores; without it,
// such a generation rejects.
func (s *Server) applySnapshot(p snapshotPayload) error {
	rebuilt := make([]*stream, 0, len(p.streams))
	for _, rec := range p.streams {
		st, err := s.revive(rec)
		if err != nil {
			return fmt.Errorf("stream %q: %w", rec.name, err)
		}
		rebuilt = append(rebuilt, st)
	}
	park := s.cfg.StreamTTL > 0
	if !park && len(rebuilt) > s.cfg.MaxStreams {
		return fmt.Errorf("snapshot holds %d streams, server caps at %d", len(rebuilt), s.cfg.MaxStreams)
	}
	s.streamMu.Lock()
	for _, st := range rebuilt {
		if park {
			s.parked[st.name] = st
		} else {
			s.streams.Store(st.name, st)
			s.streamN++
		}
	}
	s.streamMu.Unlock()
	s.observed.Store(p.observed)
	s.readvised.Store(p.readvised)
	s.ingested.Store(p.ingested)
	s.shed.Store(p.shed)
	s.restored.Store(int64(len(p.streams)))
	return nil
}

// revive rebuilds a stream from its snapshot record: the defining observe
// goes through newStream, then the manager's state is restored instead of
// re-advised — the stream resumes drift detection mid-window with its
// deployed layout and reference intact, and a forced re-advise after
// recovery is bit-identical to one before the crash.
func (s *Server) revive(rec streamRecord) (*stream, error) {
	req, err := decode[ObserveRequest](rec.config)
	if err != nil {
		return nil, fmt.Errorf("defining observe: %w", err)
	}
	if got := streamName(req.Stream); got != rec.name {
		return nil, fmt.Errorf("defining observe names stream %q", got)
	}
	comp, err := compileWorkload(req.Workload)
	if err != nil {
		return nil, fmt.Errorf("defining workload: %w", err)
	}
	if fp := comp.objectsFingerprint(); fp != rec.objFP {
		return nil, fmt.Errorf("object fingerprint %s differs from the snapshot's %s", fp[:12], rec.objFP[:12])
	}
	st, err := s.newStream(rec.name, req, comp, rec.config)
	if err != nil {
		return nil, err
	}
	if err := st.mgr.RestoreState(rec.state); err != nil {
		return nil, err
	}
	st.noteDecision("advise", true, 0)
	return st, nil
}
