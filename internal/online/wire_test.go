package online

import (
	"bytes"
	"testing"
	"time"

	"dotprov/internal/device"
)

// FuzzDecodeExtentFrame fuzzes the binary decoder: any input either errors
// or decodes to frames whose re-encoding is bit-identical to the input —
// the round-trip property the JSON/binary equivalence tests build on.
func FuzzDecodeExtentFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeFrames([]Frame{{}}))
	f.Add(EncodeFrames([]Frame{{
		ExtentPages: 64, CPU: time.Second, Elapsed: time.Minute, Txns: 3,
		Objects: []FrameObject{
			{Index: 0, IO: [device.NumIOTypes]float64{1, 2, 3, 4}, Extents: []float64{5, 0, 7}},
			{Index: 5},
		},
	}}))
	// Well-formed on the wire, hostile to the fold: a bucket width that puts
	// bucket 1 a terabyte into the object, and one whose product with the
	// bucket index overflows. The decoder accepts both — whether a bucket
	// lies inside the object is for admission to say, it knows the object.
	f.Add(EncodeFrames([]Frame{
		{ExtentPages: 1 << 30, Objects: []FrameObject{{Index: 0, Extents: []float64{0, 1}}}},
		{ExtentPages: 1 << 62, Objects: []FrameObject{{Index: 0, Extents: []float64{0, 0, 1}}}},
	}))
	f.Fuzz(func(t *testing.T, body []byte) {
		frames, err := DecodeFrames(body)
		if err != nil {
			return
		}
		if re := EncodeFrames(frames); !bytes.Equal(re, body) {
			t.Fatalf("accepted input does not round-trip: %x -> %x", body, re)
		}
	})
}

// TestReaderKeepsFirstFailure: after a failed read every later read yields
// zero, consumes nothing and leaves the first error in place — the property
// that lets a decoder read a run of fields and check once.
func TestReaderKeepsFirstFailure(t *testing.T) {
	r := NewReader([]byte{1, 0, 0, 0, 0xff})
	if got := r.U32(); got != 1 || r.Err() != nil {
		t.Fatalf("U32 = %d, err %v", got, r.Err())
	}
	if got := r.U64(); got != 0 || r.Err() == nil {
		t.Fatalf("short U64 = %d, err %v", got, r.Err())
	}
	first := r.Err()
	if got := r.U8(); got != 0 || r.Rest() != 1 {
		t.Fatalf("read after a failure returned %d and left %d bytes, want 0 and 1", got, r.Rest())
	}
	if r.Take(1) != nil || r.Blob("x") != nil || r.Count(1) != 0 || r.NamedNonNegI64("y") != 0 {
		t.Fatal("reads after a failure must yield zero values")
	}
	r.Fail(bytes.ErrTooLarge)
	if r.Err() != first {
		t.Fatalf("first failure replaced: %v", r.Err())
	}
	if want := "truncated: need 8 bytes, 1 remain"; first.Error() != want {
		t.Fatalf("error %q, want %q", first, want)
	}
}
