// Binary observation ingest: HTTP admission of online.Frame batches
// (Content-Type: application/x-dot-extents on /v1/observe) and the bounded
// queue + background worker that folds accepted frames into stream windows.
// This is the server half of the high-throughput observation plane: a
// producer ships length-prefixed little-endian frames (the codec is
// online/wire.go), admission is all-or-nothing against a bounded queue,
// and overflow sheds with 429 + Retry-After so a slow advisor backpressures
// the tap instead of stalling the engine being observed.
package serve

import (
	"errors"
	"fmt"
	"mime"
	"net/http"

	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/online"
)

// isFrameContent reports whether a request Content-Type selects the binary
// frame path (parameters like charset are ignored; a malformed header
// falls back to the JSON path, whose decoder produces the error).
func isFrameContent(ct string) bool {
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == online.ContentTypeFrames
}

// DecodeExtentFrames forwards to online.DecodeFrames, the decoder's home
// beside its encoder; the name stays because the end-to-end benchmark
// calls it.
func DecodeExtentFrames(body []byte) ([]online.Frame, error) { return online.DecodeFrames(body) }

// ObserveFramesResponse acknowledges an accepted binary observe: the batch
// is queued, not yet folded — drift verdicts come from /v1/readvise or the
// background ticker, keeping the ingest path free of optimization work.
type ObserveFramesResponse struct {
	// Stream echoes the target stream.
	Stream string `json:"stream"`
	// Frames is the number of windows accepted from this request.
	Frames int `json:"frames"`
	// Queued is the ingest queue depth (in frames) after admission.
	Queued int64 `json:"queued"`
}

// ingestItem is one admitted frame awaiting the background fold.
type ingestItem struct {
	st    *stream
	frame online.Frame
}

// handleObserveFrames is the binary /v1/observe path: decode, validate
// against the stream's pinned object list, then admit the whole batch to
// the bounded queue or shed the whole batch with 429 + Retry-After. It
// never takes an optimization slot and never blocks on a stream lock.
func (s *Server) handleObserveFrames(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	// A draining server admits nothing new — Close is flushing the frames
	// it already acknowledged. Degraded mode deliberately does NOT close
	// this path: observations are cheap, retryable, and losing them hurts
	// drift detection more than the (failing) snapshots can preserve.
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, &codedError{code: "draining",
			err: errors.New("server draining: no new observations accepted")})
		return
	}
	name := streamName(r.URL.Query().Get("stream"))
	st, err := s.lookup(name)
	if err != nil {
		writeError(w, streamErrStatus(err), err)
		return
	}
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown stream %q (define it with a JSON observe first)", name))
		return
	}
	st.touch()
	objs := st.wire
	frames, err := online.DecodeFrames(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding extent frames: %w", err))
		return
	}
	for fi, f := range frames {
		for _, o := range f.Objects {
			if int(o.Index) >= len(objs) {
				writeError(w, http.StatusBadRequest, fmt.Errorf("frame %d: object index %d out of range (stream pins %d objects)", fi, o.Index, len(objs)))
				return
			}
			// The fold grows an object's histogram to the last bucket a frame
			// addresses, so that bucket must start inside the object. Divide,
			// never multiply: a hostile width overflows the product. (The
			// decoder admits buckets only under a positive width.)
			pages := objs[o.Index].pages
			if n := int64(len(o.Extents)); n > 0 && n-1 > (max(pages, 1)-1)/f.ExtentPages {
				writeError(w, http.StatusBadRequest, fmt.Errorf("frame %d: object index %d ships %d extent buckets of %d pages, past the object's %d pages", fi, o.Index, n, f.ExtentPages, pages))
				return
			}
		}
	}
	s.ingestOnce.Do(func() {
		for i := range s.shardQ {
			go s.ingestLoop(i)
		}
	})
	// All-or-nothing admission: reserve the whole batch against the global
	// bound, back out and shed if it does not fit. Reservations are
	// released by the workers after the fold, so the bound covers queued
	// AND in-fold frames across every shard, and — each shard channel
	// holding the full bound — the sends below can never block even when
	// the whole admitted queue targets one shard.
	n := int64(len(frames))
	if s.queued.Add(n) > int64(s.cfg.IngestQueue) {
		s.queued.Add(-n)
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, &codedError{code: "shed",
			err: fmt.Errorf("ingest queue full (%d frames queued, depth %d); retry after the merger drains", s.queued.Load(), s.cfg.IngestQueue)})
		return
	}
	q := s.shardQ[st.shard]
	for _, f := range frames {
		q <- ingestItem{st: st, frame: f}
	}
	writeJSON(w, http.StatusAccepted, ObserveFramesResponse{Stream: name, Frames: len(frames), Queued: s.queued.Load()})
}

// ingestLoop is one shard's background merger: it drains the shard's
// bounded queue, folding one frame at a time into its stream's rolling
// windows under the stream lock. Frames are routed by the stream's owning
// shard, so one stream's folds are always sequential on one worker while
// different shards' tenants fold in parallel without shared locks. Started
// lazily by the first binary observe; stopped by Close. Each fold runs
// under guard — a frame that panics the fold is counted, its queue
// reservation still releases (ingestFrame's defers run during the panic),
// and the worker lives on to fold the rest of the queue.
func (s *Server) ingestLoop(shard int) {
	for {
		select {
		case <-s.stop:
			return
		case it := <-s.shardQ[shard]:
			s.guard("ingest fold", func() { s.ingestFrame(it) })
		}
	}
}

// ingestFrame folds one admitted frame into its stream: the window into
// the manager's rolling profile windows, the extent histograms into the
// manager's collector. Releases the frame's queue reservation when done.
func (s *Server) ingestFrame(it ingestItem) {
	defer s.queued.Add(-1)
	st, objs := it.st, it.st.wire
	st.mu.Lock()
	defer st.mu.Unlock()
	st.mgr.Observe(frameWindow(it.frame, objs))
	col := st.mgr.Collector()
	for _, o := range it.frame.Objects {
		if len(o.Extents) > 0 && int(o.Index) < len(objs) {
			col.ObserveExtents(objs[o.Index].id, it.frame.ExtentPages, o.Extents)
		}
	}
	s.ingested.Add(1)
	s.observed.Add(1)
}

// frameWindow lowers a decoded frame onto an online.Window over the
// stream's pinned object list — the binary twin of compiled.window on the
// JSON observe path (both keep only positive counts, so the two paths
// produce identical profiles for identical observations).
func frameWindow(f online.Frame, objs []wireObject) online.Window {
	p := iosim.NewProfile()
	for _, o := range f.Objects {
		if int(o.Index) >= len(objs) {
			continue
		}
		for t := 0; t < device.NumIOTypes; t++ {
			if o.IO[t] > 0 {
				p.Add(objs[o.Index].id, device.IOType(t), o.IO[t])
			}
		}
	}
	return online.Window{Profile: p, CPU: f.CPU, Elapsed: f.Elapsed, Txns: f.Txns}
}
