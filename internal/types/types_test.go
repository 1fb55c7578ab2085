package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompareNumeric(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewDate(10), NewInt(10), 0},
		{NewFloat(-1), NewFloat(1), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareString(t *testing.T) {
	if Compare(NewString("abc"), NewString("abd")) >= 0 {
		t.Error("abc should sort before abd")
	}
	if !Equal(NewString("x"), NewString("x")) {
		t.Error("identical strings should be equal")
	}
}

func TestCompareMixedKindsTotalOrder(t *testing.T) {
	// String vs numeric must be a consistent, antisymmetric order.
	a, b := NewInt(1), NewString("1")
	if Compare(a, b) == 0 || Compare(a, b) != -Compare(b, a) {
		t.Errorf("mixed-kind compare not antisymmetric: %d vs %d", Compare(a, b), Compare(b, a))
	}
}

func TestSchemaOps(t *testing.T) {
	s := NewSchema(Column{"a", KindInt}, Column{"b", KindString}, Column{"c", KindFloat})
	if s.ColIndex("b") != 1 {
		t.Fatalf("ColIndex(b) = %d, want 1", s.ColIndex("b"))
	}
	if s.ColIndex("zz") != -1 {
		t.Fatal("ColIndex of missing column should be -1")
	}
}

func TestEncodeDecodeTupleRoundtrip(t *testing.T) {
	tu := Tuple{NewInt(-7), NewFloat(3.25), NewString("hello"), NewDate(12345), NewString("")}
	enc := EncodeTuple(nil, tu)
	got, n, err := DecodeTuple(enc, len(tu))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d bytes, want %d", n, len(enc))
	}
	for i := range tu {
		if !Equal(tu[i], got[i]) {
			t.Fatalf("value %d: got %v want %v", i, got[i], tu[i])
		}
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	tu := Tuple{NewInt(1), NewString("abc")}
	enc := EncodeTuple(nil, tu)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeTuple(enc[:cut], len(tu)); err == nil {
			t.Fatalf("truncation at %d bytes should fail", cut)
		}
	}
	if _, _, err := DecodeTuple([]byte{0xEE}, 1); err == nil {
		t.Fatal("unknown kind tag should fail")
	}
}

// Property: tuple encoding round-trips for arbitrary int/float/string mixes.
func TestTupleRoundtripProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, d int32) bool {
		tu := Tuple{NewInt(i), NewFloat(fl), NewString(s), NewDate(int64(d))}
		enc := EncodeTuple(nil, tu)
		got, _, err := DecodeTuple(enc, len(tu))
		if err != nil {
			return false
		}
		// NaN never compares equal; accept bit-identical NaN.
		for k := range tu {
			if tu[k].Kind == KindFloat && got[k].Kind == KindFloat {
				if tu[k].F != tu[k].F && got[k].F != got[k].F {
					continue
				}
			}
			if !Equal(tu[k], got[k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey preserves integer order.
func TestKeyOrderIntProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(nil, NewInt(a))
		kb := EncodeKey(nil, NewInt(b))
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey preserves float order (NaN excluded).
func TestKeyOrderFloatProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if a != a || b != b {
			return true
		}
		ka := EncodeKey(nil, NewFloat(a))
		kb := EncodeKey(nil, NewFloat(b))
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey preserves string order, including embedded NULs, and
// composite keys order by prefix first.
func TestKeyOrderStringProperty(t *testing.T) {
	f := func(a, b string, x, y int16) bool {
		ka := EncodeKey(nil, NewString(a), NewInt(int64(x)))
		kb := EncodeKey(nil, NewString(b), NewInt(int64(y)))
		cmp := bytes.Compare(ka, kb)
		var want int
		switch {
		case a < b:
			want = -1
		case a > b:
			want = 1
		default:
			switch {
			case x < y:
				want = -1
			case x > y:
				want = 1
			}
		}
		if want < 0 {
			return cmp < 0
		}
		if want > 0 {
			return cmp > 0
		}
		return cmp == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyStringPrefixNotEqual(t *testing.T) {
	// "ab" must sort before "ab\x00" and before "abc".
	k1 := EncodeKey(nil, NewString("ab"))
	k2 := EncodeKey(nil, NewString("ab\x00"))
	k3 := EncodeKey(nil, NewString("abc"))
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Fatalf("NUL escaping broke ordering: %x %x %x", k1, k2, k3)
	}
}

// TestKeyBitsIsEncodeKey is the key-equality contract hash joins rely on:
// KeyBits is a numeric value's EncodeKey bytes read as a big-endian word,
// so keying on it matches exactly the pairs byte-equal keys matched. The
// words are written out for the edge values, so neither side can drift
// with the other: ints and dates agree with each other, -0 and +0 differ,
// and a NaN keys as its own bits.
func TestKeyBitsIsEncodeKey(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	for _, c := range []struct {
		v    Value
		want uint64
	}{
		{NewInt(0), 0x8000000000000000},
		{NewDate(0), 0x8000000000000000},
		{NewInt(-1), 0x7fffffffffffffff},
		{NewInt(math.MinInt64), 0},
		{NewInt(math.MaxInt64), 0xffffffffffffffff},
		{NewDate(9000), 0x8000000000002328},
		{NewFloat(0), 0x8000000000000000},
		{NewFloat(math.Copysign(0, -1)), 0x7fffffffffffffff},
		{NewFloat(1), 0xbff0000000000000},
		{NewFloat(-1), 0x400fffffffffffff},
		{NewFloat(math.Inf(1)), 0xfff0000000000000},
		{NewFloat(math.Inf(-1)), 0x000fffffffffffff},
		{NewFloat(nan), 0xfff8000000000001},
		{NewFloat(-nan), 0x0007fffffffffffe},
	} {
		enc := EncodeKey(nil, c.v)
		if got := KeyBits(c.v); got != c.want {
			t.Errorf("KeyBits(%v %v) = %#016x, want %#016x", c.v.Kind, c.v, got, c.want)
		}
		if len(enc) != 8 || binary.BigEndian.Uint64(enc) != c.want {
			t.Errorf("EncodeKey(%v %v) = %x, want the 8 bytes of %#016x", c.v.Kind, c.v, enc, c.want)
		}
	}
}

func BenchmarkEncodeTuple(b *testing.B) {
	tu := Tuple{NewInt(42), NewFloat(3.14), NewString("benchmark-row-payload"), NewDate(9999)}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeTuple(buf[:0], tu)
	}
}

func BenchmarkDecodeTuple(b *testing.B) {
	tu := Tuple{NewInt(42), NewFloat(3.14), NewString("benchmark-row-payload"), NewDate(9999)}
	enc := EncodeTuple(nil, tu)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeTuple(enc, len(tu)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompare(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]Value, 1024)
	for i := range vals {
		vals[i] = NewInt(r.Int63())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compare(vals[i%1024], vals[(i+1)%1024])
	}
}
