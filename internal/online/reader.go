package online

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader is the one strict little-endian reader behind every binary decoder
// of the online plane: observation frames (wire.go), the manager-state
// record (snapshot.go) and the snapshot payload internal/serve wraps around
// it. Every read is bounds-checked, and Count and Blob check a declared
// length against the bytes that remain before anything is allocated, so a
// hostile length cannot balloon memory.
//
// Errors are sticky: the first failure is kept, every later read yields
// zero and consumes nothing, and a decoder checks Err where the context it
// wraps errors in changes — and always before it returns. A decoder's own
// refusals (an unsorted ID, a NaN count) go through Fail or are returned
// directly; either way the input is rejected whole.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads b from its first byte.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Rest returns the unread byte count. A decoder that must consume its input
// exactly checks it is zero once done.
func (r *Reader) Rest() int { return len(r.b) - r.off }

// Err returns the first failure, nil while every read succeeded.
func (r *Reader) Err() error { return r.err }

// Fail records a decoder's own refusal unless a failure is already kept.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// zeroes is what a failed fixed-width read yields.
var zeroes [8]byte

// fixed consumes n <= 8 bytes; n zero bytes after a failure.
func (r *Reader) fixed(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return zeroes[:n]
}

// U8 reads one byte.
func (r *Reader) U8() byte { return r.fixed(1)[0] }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// Counts fills dst with little-endian float64s and returns the index of the
// first that is not a count the collector can produce — NaN and ±Inf would
// silently poison every window aggregate they are folded into, and nothing
// counts below zero — or -1 when all are. The run is taken in one bounds
// check: extent histograms make it the decoders' one long loop.
func (r *Reader) Counts(dst []float64) int {
	raw := r.Take(8 * len(dst))
	if r.err != nil {
		return -1
	}
	for i := range dst {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if dst[i] = v; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return i
		}
	}
	return -1
}

// NonNegI64 reads an int64 and rejects negatives.
func (r *Reader) NonNegI64() int64 { return r.nonNeg("") }

func (r *Reader) nonNeg(what string) int64 {
	v := int64(r.U64())
	if v < 0 {
		if what != "" {
			what += ": "
		}
		r.Fail(fmt.Errorf("%snegative value %d", what, v))
		return 0
	}
	return v
}

// The named forms are the same reads with errors that name the field
// ("observed: truncated") instead of spelling out the byte arithmetic —
// the snapshot payload's vocabulary. named records the truncation first,
// so the read behind it fails silently.
func (r *Reader) named(what string, n int) {
	if r.err == nil && r.Rest() < n {
		r.err = fmt.Errorf("%s: truncated", what)
	}
}

// NamedU32 is U32 whose truncation error names the field.
func (r *Reader) NamedU32(what string) uint32 {
	r.named(what, 4)
	return r.U32()
}

// NamedNonNegI64 is NonNegI64 whose errors name the field.
func (r *Reader) NamedNonNegI64(what string) int64 {
	r.named(what, 8)
	return r.nonNeg(what)
}

// Count reads a u32 element count and rejects one that could not fit in
// the remaining bytes at minBytes per element — before the caller allocates
// by it.
func (r *Reader) Count(minBytes int) int {
	n := r.U32()
	if r.err == nil && int64(n)*int64(minBytes) > int64(r.Rest()) {
		r.err = fmt.Errorf("count %d exceeds remaining %d bytes", n, r.Rest())
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Take consumes n bytes; the slice it returns aliases the input. Nil after
// a failure.
func (r *Reader) Take(n int) []byte {
	if r.err == nil && r.Rest() < n {
		r.err = fmt.Errorf("truncated: need %d bytes, %d remain", n, r.Rest())
	}
	if r.err != nil {
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Blob reads a u32-length-prefixed byte string named what; the declared
// length is checked against the remaining bytes. Nil after a failure.
func (r *Reader) Blob(what string) []byte {
	if r.err == nil && r.Rest() < 4 {
		r.err = fmt.Errorf("%s length: truncated", what)
	}
	n := int(r.U32())
	if r.err == nil && n > r.Rest() {
		r.err = fmt.Errorf("%s: declares %d bytes, %d remain", what, n, r.Rest())
	}
	return r.Take(n)
}
