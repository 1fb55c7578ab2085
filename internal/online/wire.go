// Binary observation wire format: the batched, length-prefixed frame
// encoding of profile windows and extent histograms that /v1/observe
// accepts as application/x-dot-extents. JSON observations cost an
// allocation-heavy decode per window; a frame is a flat little-endian
// record a producer can append per window close and a server can decode
// without touching the optimizer, which is what keeps the observation
// plane cheap at production page-charge rates. Encoder and decoder live
// here side by side, so producers (engines, agents, tests) and the server
// need only internal/online and the layout is written down once.
package online

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"dotprov/internal/device"
)

// FrameVersion is the version byte every frame opens with. Decoders reject
// other versions; bump it when the layout changes.
const FrameVersion = 1

// ContentTypeFrames is the media type that selects the binary frame path
// on /v1/observe. It lives in the wire package so producers and the server
// agree on it without importing each other.
const ContentTypeFrames = "application/x-dot-extents"

// FrameObject is one object's observation inside a frame. Objects are
// named by their zero-based index into the stream's pinned object list
// (the declaration order of the defining observe) — streams already pin
// the schema, so frames never re-ship names.
type FrameObject struct {
	// Index is the object's position in the stream's object list.
	Index uint32
	// IO counts the window's I/Os by type, indexed by device.IOType.
	IO [device.NumIOTypes]float64
	// Extents optionally carries the object's extent-histogram bucket
	// counts for the window: Extents[i] accesses to the page run starting
	// at page i*Frame.ExtentPages. Nil ships no locality.
	Extents []float64
}

// Frame is one observation window in wire form: the scalar window stats
// plus the per-object I/O counts and extent histograms. A request body
// holds any number of frames back to back — the batch.
type Frame struct {
	// ExtentPages is the extent-histogram bucket width in pages for every
	// object histogram in the frame (0 when no object ships extents).
	ExtentPages int64
	// CPU, Elapsed and Txns are the window scalars (see Window).
	CPU     time.Duration
	Elapsed time.Duration
	Txns    int64
	// Objects carries the per-object observations.
	Objects []FrameObject
}

// frameScalarBytes is the fixed payload prefix: version byte, three
// reserved zero bytes, four little-endian int64 scalars, and the object
// count.
const frameScalarBytes = 4 + 8*4 + 4

// frameObjectBytes is the fixed wire size of one frame object minus its
// extent buckets: index word, the I/O doubles, and the bucket count word.
const frameObjectBytes = 4 + 8*device.NumIOTypes + 4

// EncodedSize returns the exact encoding size of the frame in bytes,
// including the length prefix.
func (f Frame) EncodedSize() int {
	n := 4 + frameScalarBytes
	for _, o := range f.Objects {
		n += frameObjectBytes + 8*len(o.Extents)
	}
	return n
}

// AppendFrame appends the frame's wire encoding to dst and returns the
// extended slice. The layout, all little-endian:
//
//	u32  payload length (bytes after this word)
//	u8   version (FrameVersion)
//	u8×3 reserved, zero
//	i64  extent bucket width in pages
//	i64  cpu nanoseconds
//	i64  elapsed nanoseconds
//	i64  transactions
//	u32  object count
//	per object:
//	  u32  object index in the stream's pinned object list
//	  f64  I/O counts, one per device.IOType in order
//	  u32  extent bucket count
//	  f64  per bucket: accesses to the run starting at bucket*width pages
func AppendFrame(dst []byte, f Frame) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.EncodedSize()-4))
	dst = append(dst, FrameVersion, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.ExtentPages))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.CPU))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Elapsed))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Txns))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Objects)))
	for _, o := range f.Objects {
		dst = binary.LittleEndian.AppendUint32(dst, o.Index)
		for _, v := range o.IO {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(o.Extents)))
		for _, v := range o.Extents {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// EncodeFrames encodes a batch of frames back to back — the body of one
// binary /v1/observe request.
func EncodeFrames(frames []Frame) []byte {
	var n int
	for _, f := range frames {
		n += f.EncodedSize()
	}
	dst := make([]byte, 0, n)
	for _, f := range frames {
		dst = AppendFrame(dst, f)
	}
	return dst
}

// DecodeFrames decodes a batch of back-to-back frames — the exact inverse
// of AppendFrame/EncodeFrames. It is strict: unknown versions, non-zero
// reserved bytes, negative scalars, non-finite or negative counts,
// truncated payloads and trailing garbage are all errors — a frame either
// round-trips bit-identically or is rejected whole, so fuzzing the decoder
// (FuzzDecodeExtentFrame) can assert encode(decode(b)) == b for every
// accepted input.
func DecodeFrames(body []byte) ([]Frame, error) {
	var frames []Frame
	for r := NewReader(body); r.Rest() > 0; {
		if r.Rest() < 4 {
			return nil, fmt.Errorf("frame %d: truncated length prefix", len(frames))
		}
		plen := int(r.U32())
		if plen > r.Rest() {
			return nil, fmt.Errorf("frame %d: declares %d payload bytes, %d remain", len(frames), plen, r.Rest())
		}
		f, err := decodeFrame(r.Take(plen))
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", len(frames), err)
		}
		frames = append(frames, f)
	}
	if len(frames) == 0 {
		return nil, errors.New("empty frame batch")
	}
	return frames, nil
}

// decodeFrame decodes one frame payload (the bytes after its length
// prefix), which must be consumed exactly. Every read sits behind a check
// of the bytes that remain, so the reader itself never fails here.
func decodeFrame(p []byte) (Frame, error) {
	var f Frame
	if len(p) < frameScalarBytes {
		return f, fmt.Errorf("payload too short (%d bytes)", len(p))
	}
	r := NewReader(p)
	if head := r.Take(4); head[0] != FrameVersion {
		return f, fmt.Errorf("unsupported frame version %d (want %d)", head[0], FrameVersion)
	} else if head[1] != 0 || head[2] != 0 || head[3] != 0 {
		return f, errors.New("non-zero reserved bytes")
	}
	f.ExtentPages = int64(r.U64())
	f.CPU = time.Duration(r.U64())
	f.Elapsed = time.Duration(r.U64())
	f.Txns = int64(r.U64())
	if f.ExtentPages < 0 || f.CPU < 0 || f.Elapsed < 0 || f.Txns < 0 {
		return f, errors.New("negative window scalar")
	}
	nobj := int(r.U32())
	if nobj > 0 {
		// Sized by what the payload can hold, not by what it declares.
		f.Objects = make([]FrameObject, 0, min(nobj, r.Rest()/frameObjectBytes))
	}
	for i := 0; i < nobj; i++ {
		if r.Rest() < frameObjectBytes {
			return f, fmt.Errorf("object %d: truncated", i)
		}
		o := FrameObject{Index: r.U32()}
		if t := r.Counts(o.IO[:]); t >= 0 {
			return f, fmt.Errorf("object %d: invalid I/O count %v", i, o.IO[t])
		}
		nbuck := int(r.U32())
		if nbuck > r.Rest()/8 {
			return f, fmt.Errorf("object %d: declares %d extent buckets, %d bytes remain", i, nbuck, r.Rest())
		}
		if nbuck > 0 {
			if f.ExtentPages <= 0 {
				return f, fmt.Errorf("object %d: extent buckets without a positive extent width", i)
			}
			o.Extents = make([]float64, nbuck)
			if b := r.Counts(o.Extents); b >= 0 {
				return f, fmt.Errorf("object %d bucket %d: invalid count %v", i, b, o.Extents[b])
			}
		}
		f.Objects = append(f.Objects, o)
	}
	if r.Rest() != 0 {
		return f, fmt.Errorf("%d trailing payload bytes", r.Rest())
	}
	return f, nil
}

// WindowFrame lifts a closed window into wire form over a name→index
// mapping: ids maps the collector's object IDs onto pinned-list indexes.
// Objects absent from ids are dropped (the stream does not know them).
// Extent histograms are not derivable from a Window; attach them to the
// returned frame's Objects if the producer tracks locality.
func WindowFrame(w Window, ids map[uint32]uint32) Frame {
	f := Frame{CPU: w.CPU, Elapsed: w.Elapsed, Txns: w.Txns}
	for id, v := range w.Profile {
		idx, ok := ids[uint32(id)]
		if !ok {
			continue
		}
		o := FrameObject{Index: idx}
		o.IO = *v
		f.Objects = append(f.Objects, o)
	}
	// Profile maps iterate in random order; a canonical object order keeps
	// the encoding deterministic (equal windows encode to equal bytes).
	sort.Slice(f.Objects, func(i, j int) bool { return f.Objects[i].Index < f.Objects[j].Index })
	return f
}
