package types

import (
	"bytes"
	"cmp"
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

// FuzzDecodePage holds the page decoder to DecodeTupleInto on arbitrary
// records: cut b into records at the lengths in cuts, decode them as a
// page, and the page must stop at the first record DecodeTupleInto rejects,
// with its error, and hold every value before it exactly as DecodeTupleInto
// decodes it — also after the records' bytes are overwritten — with each
// uniform column's kind and words those of its values.
func FuzzDecodePage(f *testing.F) {
	rows := []Tuple{
		{NewInt(-7), NewString("MAIL"), NewFloat(0.04), NewDate(9000)},
		{NewInt(8), NewString(""), NewFloat(math.NaN()), NewDate(-1)},
		{NewDate(3), NewString("a longer comment"), NewInt(2), NewString("mixed")},
	}
	var page, cuts []byte
	for _, r := range rows {
		rec := EncodeTuple(nil, r)
		page, cuts = append(page, rec...), append(cuts, byte(len(rec)))
	}
	f.Add(page, uint8(4), cuts)
	f.Add(page, uint8(3), cuts)
	f.Add(page, uint8(5), cuts)                              // every record one value short
	f.Add(page, uint8(0), cuts)                              // no columns
	f.Add(page, uint8(4), []byte{cuts[0], cuts[1] - 3, 200}) // the second record truncated
	f.Add([]byte{byte(KindInt)}, uint8(1), []byte{})
	f.Add([]byte{0xEE, 1, 2, 3}, uint8(1), []byte{0})

	f.Fuzz(func(t *testing.T, b []byte, n uint8, cuts []byte) {
		width := int(n % 9)
		b = append([]byte(nil), b...)
		var recs [][]byte
		rest := b
		for _, c := range cuts {
			l := min(int(c), len(rest))
			recs, rest = append(recs, rest[:l:l]), rest[l:]
		}
		recs = append(recs, rest)

		var want []Tuple
		var wantErr error
		for _, rec := range recs {
			tu := make(Tuple, width)
			if _, err := DecodeTupleInto(tu, rec, nil); err != nil {
				wantErr = err
				break
			}
			want = append(want, tu)
		}

		cols, _ := DecodePage(recs, width, nil)
		for i := range b {
			b[i] = ^b[i]
		}
		if cols.Rows() != len(want) {
			t.Fatalf("page decoded %d rows, DecodeTupleInto %d", cols.Rows(), len(want))
		}
		if err := cols.Err(); (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("page error %v, DecodeTupleInto %v", err, wantErr)
		}
		for c := 0; c < width; c++ {
			words, kind, uniform := cols.Column(c)
			if len(words) != len(want) {
				t.Fatalf("column %d: %d words for %d rows", c, len(words), len(want))
			}
			for r, tu := range want {
				v := cols.Value(c, r)
				if !sameValue(v, tu[c]) {
					t.Fatalf("row %d column %d = %v, DecodeTupleInto %v", r, c, v, tu[c])
				}
				if !uniform {
					continue
				}
				if v.Kind != kind {
					t.Fatalf("column %d reads uniform %v, row %d holds %v", c, kind, r, v.Kind)
				}
				if (kind == KindInt || kind == KindDate) && words[r] != uint64(v.Int) ||
					kind == KindFloat && words[r] != math.Float64bits(v.F) {
					t.Fatalf("row %d column %d: word %#x for %v", r, c, words[r], v)
				}
			}
		}
	})
}

// FuzzKeyBits holds the hash join's key to the B+-tree's on any two numeric
// values: KeyBits is the EncodeKey encoding read as a word, so the words are
// equal exactly when the encodings are and order as the encodings do, and
// two values whose keys are equal compare equal.
func FuzzKeyBits(f *testing.F) {
	kinds := []Kind{KindInt, KindDate, KindFloat}
	value := func(k uint8, bits uint64) Value {
		switch kind := kinds[int(k)%len(kinds)]; kind {
		case KindFloat:
			return NewFloat(math.Float64frombits(bits))
		default:
			return Value{Kind: kind, Int: int64(bits)}
		}
	}
	f.Add(uint8(0), uint64(5), uint8(1), uint64(5))                              // int against date
	f.Add(uint8(2), uint64(0), uint8(2), math.Float64bits(math.Copysign(0, -1))) // +0 against -0
	f.Add(uint8(0), uint64(1)<<63, uint8(0), uint64(1)<<63-1)                    // MinInt64 against MaxInt64
	f.Add(uint8(2), math.Float64bits(math.NaN()), uint8(2), math.Float64bits(math.Inf(1)))
	f.Add(uint8(0), uint64(0xbff0000000000000^1<<63), uint8(2), math.Float64bits(1)) // an int keyed like 1.0
	f.Fuzz(func(t *testing.T, ka uint8, a uint64, kb uint8, b uint64) {
		va, vb := value(ka, a), value(kb, b)
		ea, eb := EncodeKey(nil, va), EncodeKey(nil, vb)
		wa, wb := KeyBits(va), KeyBits(vb)
		if len(ea) != 8 || binary.BigEndian.Uint64(ea) != wa {
			t.Fatalf("KeyBits(%v %v) = %#016x, EncodeKey %x", va.Kind, va, wa, ea)
		}
		if got, want := cmp.Compare(wa, wb), bytes.Compare(ea, eb); got != want {
			t.Fatalf("%v %v against %v %v: words compare %d, keys %d", va.Kind, va, vb.Kind, vb, got, want)
		}
		sameKind := (va.Kind == KindFloat) == (vb.Kind == KindFloat)
		if wa == wb && sameKind && va.AsFloat() == va.AsFloat() && Compare(va, vb) != 0 {
			t.Fatalf("%v %v and %v %v share a key but compare unequal", va.Kind, va, vb.Kind, vb)
		}
	})
}
