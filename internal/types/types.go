// Package types defines the value model shared by the mini relational
// engine: column types, scalar values, tuples and schemas, together with an
// order-preserving binary encoding used for index keys and on-page records.
package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Kind enumerates the column types supported by the engine. The set mirrors
// what the TPC-H and TPC-C schemas need.
type Kind uint8

const (
	KindInt    Kind = iota // 64-bit signed integer
	KindFloat              // 64-bit IEEE float
	KindString             // variable-length UTF-8 string
	KindDate               // days since 1970-01-01, stored as int64
)

// String renders the kind as its SQL type name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a scalar value. Exactly one field is meaningful, selected by Kind.
// Using a small struct instead of interface{} keeps tuples allocation-light
// on the hot execution path.
type Value struct {
	Kind Kind
	Int  int64   // KindInt, KindDate
	F    float64 // KindFloat
	Str  string  // KindString
}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, F: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{Kind: KindString, Str: v} }

// NewDate returns a date value expressed as days since the epoch.
func NewDate(days int64) Value { return Value{Kind: KindDate, Int: days} }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool {
	return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindDate
}

// AsFloat converts numeric values to float64 for arithmetic.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindFloat:
		return v.F
	case KindInt, KindDate:
		return float64(v.Int)
	default:
		return math.NaN()
	}
}

// String renders the value for debugging and result printing.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	case KindString:
		return v.Str
	case KindDate:
		return fmt.Sprintf("date(%d)", v.Int)
	default:
		return "?"
	}
}

// Compare orders two values. Values of different kinds compare by kind so
// that Compare is a total order; the engine never mixes kinds in practice
// except int/date/float, which compare numerically.
func Compare(a, b Value) int {
	if a.IsNumeric() && b.IsNumeric() {
		// Fast path: both integral.
		if a.Kind != KindFloat && b.Kind != KindFloat {
			switch {
			case a.Int < b.Int:
				return -1
			case a.Int > b.Int:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Str, b.Str)
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Tuple is a row of values.
type Tuple []Value

// Clone returns a deep-enough copy of the tuple (strings are immutable).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema describes the attributes of a relation.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from (name, kind) pairs.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ---- Record encoding ----------------------------------------------------
//
// Tuples are serialised into slotted pages with a compact, self-describing
// layout: for each value a 1-byte kind tag followed by the payload (8-byte
// little-endian for numerics, uvarint length + bytes for strings).

// EncodeTuple appends the binary encoding of t (against the given schema
// order) to dst and returns the extended slice.
func EncodeTuple(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case KindInt, KindDate:
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(v.Int))
			dst = append(dst, buf[:]...)
		case KindFloat:
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
			dst = append(dst, buf[:]...)
		case KindString:
			var buf [binary.MaxVarintLen64]byte
			n := binary.PutUvarint(buf[:], uint64(len(v.Str)))
			dst = append(dst, buf[:n]...)
			dst = append(dst, v.Str...)
		}
	}
	return dst
}

// DecodeTuple parses a tuple of n values from b. It returns the tuple and
// the number of bytes consumed.
func DecodeTuple(b []byte, n int) (Tuple, int, error) {
	t := make(Tuple, n)
	off, err := DecodeTupleInto(t, b, nil)
	if err != nil {
		return nil, 0, err
	}
	return t, off, nil
}

// DecodeTupleInto parses len(dst) values from b into dst, overwriting it,
// and returns the number of bytes consumed — DecodeTuple without the
// allocation, for callers that look at one row at a time. A non-nil mask
// (len(dst) long) selects the positions wanted: an unselected value's tag
// and length are still walked and checked, so a damaged record fails
// exactly as it does unmasked, but no payload is decoded, no string is
// materialised, and that position of dst is left untouched.
func DecodeTupleInto(dst Tuple, b []byte, mask []bool) (int, error) {
	off := 0
	for i := range dst {
		if off >= len(b) {
			return 0, fmt.Errorf("types: truncated tuple (value %d of %d)", i, len(dst))
		}
		want := mask == nil || mask[i]
		k := Kind(b[off])
		off++
		switch k {
		case KindInt, KindDate:
			if off+8 > len(b) {
				return 0, fmt.Errorf("types: truncated int at value %d", i)
			}
			if want {
				dst[i] = Value{Kind: k, Int: int64(binary.LittleEndian.Uint64(b[off:]))}
			}
			off += 8
		case KindFloat:
			if off+8 > len(b) {
				return 0, fmt.Errorf("types: truncated float at value %d", i)
			}
			if want {
				dst[i] = Value{Kind: KindFloat, F: math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))}
			}
			off += 8
		case KindString:
			l, m := binary.Uvarint(b[off:])
			if m <= 0 {
				return 0, fmt.Errorf("types: bad string length at value %d", i)
			}
			off += m
			if l > uint64(len(b)-off) {
				return 0, fmt.Errorf("types: truncated string at value %d", i)
			}
			if want {
				dst[i] = Value{Kind: KindString, Str: string(b[off : off+int(l)])}
			}
			off += int(l)
		default:
			return 0, fmt.Errorf("types: unknown kind tag %d at value %d", k, i)
		}
	}
	return off, nil
}

// mixedKind marks a column of PageColumns whose rows do not all hold one
// kind; the kinds of its rows are then kept row by row.
const mixedKind Kind = 0xFF

// PageColumns is one page's records decoded column-major: per column, the
// kind its rows hold and one 8-byte word per row — a number's bits, or a
// string's offset<<32|length into one string holding every string of the
// page — so decoding a page allocates no string per value. It is built by
// DecodePage and read-only afterwards, so any number of goroutines may
// read one.
type PageColumns struct {
	rows, stride int
	err          error
	kinds        []Kind   // per column; mixedKind when the rows differ
	rowKinds     [][]Kind // per column, each row's kind; nil unless mixed
	words        []uint64 // column c, row r at c*stride+r
	strs         string
}

// DecodePage decodes the page's records recs, in order, as tuples of
// width values. It reads the record format as DecodeTupleInto does, with
// the same checks and error texts, and checks every value of every
// record: at the first record DecodeTupleInto rejects it stops, Rows
// counts the records before that one, and Err returns the error
// DecodeTupleInto gives for it (FuzzDecodePage holds the two together).
// scratch is storage for the page's strings while they are gathered;
// DecodePage returns it, grown, for the next page. The columns hold no
// reference to recs or scratch.
func DecodePage(recs [][]byte, width int, scratch []byte) (*PageColumns, []byte) {
	p := &PageColumns{stride: len(recs), kinds: make([]Kind, width), words: make([]uint64, width*len(recs))}
	strs := scratch[:0]
	for r, b := range recs {
		n := len(strs)
		if p.err = p.decode(r, b, &strs); p.err != nil {
			strs = strs[:n]
			break
		}
		p.rows++
	}
	p.strs = string(strs)
	return p, strs
}

// decode reads record b into row r, appending its strings to strs.
func (p *PageColumns) decode(r int, b []byte, strs *[]byte) error {
	off, width := 0, len(p.kinds)
	for c := 0; c < width; c++ {
		if off >= len(b) {
			return fmt.Errorf("types: truncated tuple (value %d of %d)", c, width)
		}
		k := Kind(b[off])
		off++
		var w uint64
		switch k {
		case KindInt, KindDate:
			if off+8 > len(b) {
				return fmt.Errorf("types: truncated int at value %d", c)
			}
			w = binary.LittleEndian.Uint64(b[off:])
			off += 8
		case KindFloat:
			if off+8 > len(b) {
				return fmt.Errorf("types: truncated float at value %d", c)
			}
			w = binary.LittleEndian.Uint64(b[off:])
			off += 8
		case KindString:
			l, m := binary.Uvarint(b[off:])
			if m <= 0 {
				return fmt.Errorf("types: bad string length at value %d", c)
			}
			off += m
			if l > uint64(len(b)-off) {
				return fmt.Errorf("types: truncated string at value %d", c)
			}
			w = uint64(len(*strs))<<32 | l
			*strs = append(*strs, b[off:off+int(l)]...)
			off += int(l)
		default:
			return fmt.Errorf("types: unknown kind tag %d at value %d", k, c)
		}
		p.words[c*p.stride+r] = w
		p.setKind(c, r, k)
	}
	return nil
}

// setKind records that row r of column c holds kind k.
func (p *PageColumns) setKind(c, r int, k Kind) {
	switch {
	case r == 0:
		p.kinds[c] = k
	case p.kinds[c] == mixedKind:
		p.rowKinds[c][r] = k
	case p.kinds[c] != k:
		if p.rowKinds == nil {
			p.rowKinds = make([][]Kind, len(p.kinds))
		}
		rk := make([]Kind, p.stride)
		for i := range r {
			rk[i] = p.kinds[c]
		}
		rk[r] = k
		p.rowKinds[c], p.kinds[c] = rk, mixedKind
	}
}

// Rows returns how many records were decoded.
func (p *PageColumns) Rows() int { return p.rows }

// Err returns why the record after the last decoded one was rejected, or
// nil when every record was decoded.
func (p *PageColumns) Err() error { return p.err }

// Column returns column c's words, one per decoded row, and the kind
// every row of it holds; uniform is false when the rows' kinds differ
// (Value then reads each row's own).
func (p *PageColumns) Column(c int) (words []uint64, kind Kind, uniform bool) {
	return p.words[c*p.stride : c*p.stride+p.rows], p.kinds[c], p.kinds[c] != mixedKind
}

// Value returns row r's value in column c. A string shares the page's one
// string; nothing is allocated.
func (p *PageColumns) Value(c, r int) Value {
	k, w := p.kinds[c], p.words[c*p.stride+r]
	if k == mixedKind {
		k = p.rowKinds[c][r]
	}
	switch k {
	case KindInt, KindDate:
		return Value{Kind: k, Int: int64(w)}
	case KindFloat:
		return Value{Kind: KindFloat, F: math.Float64frombits(w)}
	default:
		off := w >> 32
		return Value{Kind: KindString, Str: p.strs[off : off+w&0xFFFFFFFF]}
	}
}

// ---- Order-preserving key encoding ---------------------------------------
//
// Index keys are byte strings whose lexicographic order equals the logical
// order of the encoded values. Integers flip the sign bit and use big-endian;
// floats use the standard IEEE trick; strings are terminated with 0x00 0x01
// escaping so that prefixes order correctly in composite keys.

// EncodeKey appends an order-preserving encoding of the values to dst.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.Kind {
		case KindInt, KindDate, KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, KeyBits(v))
		case KindString:
			for i := 0; i < len(v.Str); i++ {
				c := v.Str[i]
				if c == 0x00 {
					dst = append(dst, 0x00, 0xFF)
				} else {
					dst = append(dst, c)
				}
			}
			dst = append(dst, 0x00, 0x01)
		}
	}
	return dst
}

// KeyBits returns a numeric value's EncodeKey encoding — its 8 bytes read
// big-endian — as one word, so two numeric values encode alike exactly when
// their KeyBits are equal, and order alike as the words do. Hash joins and
// Analyze's distinct counts key on it rather than on the bytes. v must be
// an int, date or float.
func KeyBits(v Value) uint64 {
	if v.Kind != KindFloat {
		return uint64(v.Int) ^ (1 << 63)
	}
	bits := math.Float64bits(v.F)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// SpreadKey mixes a key word — a number's KeyBits, or a string's hash —
// so that its high bits depend on all of the word's: a hash table of 2^b
// slots takes the top b bits (SpreadKey(w) >> (64-b)) as a slot. Words that
// differ only in their high bits, as floats' do, spread like sequential
// integers'.
func SpreadKey(w uint64) uint64 { return (w ^ w>>32) * 0x9E3779B97F4A7C15 }
