package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// referenceDecode is the allocate-per-row decoder DecodeTupleInto replaced,
// kept as the separately written reference the fuzz target compares against.
func referenceDecode(b []byte, n int) (Tuple, int, error) {
	t := make(Tuple, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		if off >= len(b) {
			return nil, 0, fmt.Errorf("types: truncated tuple (value %d of %d)", i, n)
		}
		k := Kind(b[off])
		off++
		switch k {
		case KindInt, KindDate:
			if off+8 > len(b) {
				return nil, 0, fmt.Errorf("types: truncated int at value %d", i)
			}
			t = append(t, Value{Kind: k, Int: int64(binary.LittleEndian.Uint64(b[off : off+8]))})
			off += 8
		case KindFloat:
			if off+8 > len(b) {
				return nil, 0, fmt.Errorf("types: truncated float at value %d", i)
			}
			t = append(t, Value{Kind: KindFloat, F: math.Float64frombits(binary.LittleEndian.Uint64(b[off : off+8]))})
			off += 8
		case KindString:
			l, m := binary.Uvarint(b[off:])
			if m <= 0 {
				return nil, 0, fmt.Errorf("types: bad string length at value %d", i)
			}
			off += m
			if l > uint64(len(b)-off) {
				return nil, 0, fmt.Errorf("types: truncated string at value %d", i)
			}
			t = append(t, Value{Kind: KindString, Str: string(b[off : off+int(l)])})
			off += int(l)
		default:
			return nil, 0, fmt.Errorf("types: unknown kind tag %d at value %d", k, i)
		}
	}
	return t, off, nil
}

// sameValue compares bit for bit (a decoded float may be a NaN).
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && a.Str == b.Str && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// FuzzDecodeTupleInto holds the in-place decoder to the reference on
// arbitrary bytes: unmasked and under any mask it accepts and rejects the
// same records with the same error and consumed length, decodes the same
// value at every selected position, and leaves every other position alone.
func FuzzDecodeTupleInto(f *testing.F) {
	row := Tuple{NewInt(-7), NewString("MAIL"), NewFloat(0.04), NewDate(9000), NewString(""), NewString("a longer comment column")}
	enc := EncodeTuple(nil, row)
	f.Add(enc, uint8(len(row)), uint32(0b010101))
	f.Add(enc, uint8(len(row)), uint32(0))
	f.Add(enc, uint8(len(row)+1), uint32(0xffffffff)) // one value short
	for _, cut := range []int{1, 5, 9, 11, 14, len(enc) - 3} {
		f.Add(enc[:cut], uint8(len(row)), uint32(0b101010))
	}
	f.Add([]byte{0xEE, 1, 2, 3}, uint8(1), uint32(0))                                  // bad kind tag
	f.Add([]byte{byte(KindString), 0xff, 0xff, 0xff, 0xff, 0x0f}, uint8(1), uint32(1)) // length past the record
	f.Add(append([]byte{byte(KindString)}, make([]byte, 11)...), uint8(1), uint32(0))  // overlong uvarint padding
	f.Add([]byte{byte(KindString), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(1), uint32(0))

	sentinel := NewString("untouched")
	f.Fuzz(func(t *testing.T, b []byte, n uint8, bits uint32) {
		width := int(n % 33)
		want, wantOff, wantErr := referenceDecode(b, width)

		got, gotOff, gotErr := DecodeTuple(b, width)
		if gotOff != wantOff || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("DecodeTuple: (%d, %v), reference (%d, %v)", gotOff, gotErr, wantOff, wantErr)
		}
		for i := range want {
			if !sameValue(got[i], want[i]) {
				t.Fatalf("DecodeTuple: value %d = %v, reference %v", i, got[i], want[i])
			}
		}

		mask := make([]bool, width)
		dst := make(Tuple, width)
		for i := range mask {
			mask[i], dst[i] = bits&(1<<(i%32)) != 0, sentinel
		}
		off, err := DecodeTupleInto(dst, b, mask)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("masked: error %v, reference %v", err, wantErr)
		}
		if err != nil {
			if off != 0 {
				t.Fatalf("masked: consumed %d bytes of a rejected record", off)
			}
			return
		}
		if off != wantOff {
			t.Fatalf("masked: consumed %d bytes, reference %d", off, wantOff)
		}
		for i := range dst {
			if mask[i] && !sameValue(dst[i], want[i]) {
				t.Fatalf("masked: selected value %d = %v, reference %v", i, dst[i], want[i])
			}
			if !mask[i] && !sameValue(dst[i], sentinel) {
				t.Fatalf("masked: unselected value %d was overwritten with %v", i, dst[i])
			}
		}
	})
}
