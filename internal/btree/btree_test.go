package btree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dotprov/internal/bufferpool"
	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/pagestore"
	"dotprov/internal/types"
)

func intKey(v int64) []byte { return types.EncodeKey(nil, types.NewInt(v)) }

func rid(n int) pagestore.RID { return pagestore.RID{Page: uint32(n / 100), Slot: uint16(n % 100)} }

// searchEq returns the RIDs of the entries whose key starts with key, in
// (key, RID) order, charging the descent plus any extra leaf pages walked.
func searchEq(tr *Tree, pool *bufferpool.Pool, ch iosim.Charger, key []byte) []pagestore.RID {
	var out []pagestore.RID
	tr.Range(pool, ch, key, key, true, true, func(_ []byte, rid pagestore.RID) bool {
		out = append(out, rid)
		return true
	})
	return out
}

type counter struct {
	rr int64
}

func (c *counter) ChargePageIO(_ catalog.ObjectID, t device.IOType, _ int64, n int64) {
	if t == device.RandRead {
		c.rr += n
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := New(1)
	pool := bufferpool.New(64)
	for i := 0; i < 100; i++ {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(int64(i)), rid(i))
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	for i := 0; i < 100; i++ {
		got := searchEq(tr, pool, bufferpool.NopCharger{}, intKey(int64(i)))
		if len(got) != 1 || got[0] != rid(i) {
			t.Fatalf("searchEq(%d) = %v", i, got)
		}
	}
	if got := searchEq(tr, pool, bufferpool.NopCharger{}, intKey(1000)); len(got) != 0 {
		t.Fatalf("searchEq(miss) = %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitsProduceValidTree(t *testing.T) {
	tr := NewWithCaps(1, 4, 4)
	pool := bufferpool.New(1024)
	r := rand.New(rand.NewSource(7))
	perm := r.Perm(2000)
	for _, v := range perm {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(int64(v)), rid(v))
		if v%203 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("after insert %d: %v", v, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 4 {
		t.Fatalf("height = %d; small caps should force a deep tree", tr.Height())
	}
	for _, v := range []int{0, 1, 999, 1999} {
		got := searchEq(tr, pool, bufferpool.NopCharger{}, intKey(int64(v)))
		if len(got) != 1 || got[0] != rid(v) {
			t.Fatalf("searchEq(%d) after splits = %v", v, got)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := NewWithCaps(1, 4, 4)
	pool := bufferpool.New(1024)
	for i := 0; i < 50; i++ {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(7), rid(i))
	}
	got := searchEq(tr, pool, bufferpool.NopCharger{}, intKey(7))
	if len(got) != 50 {
		t.Fatalf("found %d duplicates, want 50", len(got))
	}
	// Entries come back in RID order (entries are unique on (key, rid)).
	for i := 1; i < len(got); i++ {
		if !(got[i-1].Page < got[i].Page || (got[i-1].Page == got[i].Page && got[i-1].Slot < got[i].Slot)) {
			t.Fatal("duplicate RIDs not ordered")
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeScan(t *testing.T) {
	tr := NewWithCaps(1, 8, 8)
	pool := bufferpool.New(1024)
	for i := 0; i < 500; i++ {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(int64(i*2)), rid(i)) // even keys
	}
	collect := func(lo, hi []byte, loIncl, hiIncl bool) []int64 {
		var out []int64
		tr.Range(pool, bufferpool.NopCharger{}, lo, hi, loIncl, hiIncl, func(k []byte, r pagestore.RID) bool {
			out = append(out, int64(r.Page)*100+int64(r.Slot))
			return true
		})
		return out
	}
	got := collect(intKey(10), intKey(20), true, true)
	if len(got) != 6 { // 10,12,14,16,18,20
		t.Fatalf("inclusive range [10,20] returned %d entries, want 6", len(got))
	}
	got = collect(intKey(10), intKey(20), false, false)
	if len(got) != 4 {
		t.Fatalf("exclusive range (10,20) returned %d entries, want 4", len(got))
	}
	got = collect(intKey(11), intKey(13), true, true)
	if len(got) != 1 {
		t.Fatalf("range [11,13] returned %d entries, want 1 (key 12)", len(got))
	}
	got = collect(nil, intKey(8), true, true)
	if len(got) != 5 { // 0,2,4,6,8
		t.Fatalf("range [nil,8] returned %d, want 5", len(got))
	}
	got = collect(intKey(990), nil, true, true)
	if len(got) != 5 { // 990..998
		t.Fatalf("range [990,nil] returned %d, want 5", len(got))
	}
	got = collect(nil, nil, true, true)
	if len(got) != 500 {
		t.Fatalf("full scan returned %d, want 500", len(got))
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New(1)
	pool := bufferpool.New(64)
	for i := 0; i < 100; i++ {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(int64(i)), rid(i))
	}
	n := 0
	tr.Range(pool, bufferpool.NopCharger{}, nil, nil, true, true, func([]byte, pagestore.RID) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d, want 7", n)
	}
}

func TestDelete(t *testing.T) {
	tr := NewWithCaps(1, 4, 4)
	pool := bufferpool.New(1024)
	for i := 0; i < 300; i++ {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(int64(i)), rid(i))
	}
	for i := 0; i < 300; i += 2 {
		if !tr.Delete(pool, bufferpool.NopCharger{}, intKey(int64(i)), rid(i)) {
			t.Fatalf("Delete(%d) reported not found", i)
		}
	}
	if tr.Len() != 150 {
		t.Fatalf("Len after deletes = %d, want 150", tr.Len())
	}
	for i := 0; i < 300; i++ {
		got := searchEq(tr, pool, bufferpool.NopCharger{}, intKey(int64(i)))
		if i%2 == 0 && len(got) != 0 {
			t.Fatalf("deleted key %d still found", i)
		}
		if i%2 == 1 && len(got) != 1 {
			t.Fatalf("surviving key %d lost", i)
		}
	}
	if tr.Delete(pool, bufferpool.NopCharger{}, intKey(0), rid(0)) {
		t.Fatal("double delete should report false")
	}
	if tr.Delete(pool, bufferpool.NopCharger{}, intKey(5000), rid(1)) {
		t.Fatal("delete of missing key should report false")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteSpecificDuplicate(t *testing.T) {
	tr := New(1)
	pool := bufferpool.New(64)
	for i := 0; i < 10; i++ {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(1), rid(i))
	}
	if !tr.Delete(pool, bufferpool.NopCharger{}, intKey(1), rid(4)) {
		t.Fatal("delete of one duplicate failed")
	}
	got := searchEq(tr, pool, bufferpool.NopCharger{}, intKey(1))
	if len(got) != 9 {
		t.Fatalf("%d duplicates left, want 9", len(got))
	}
	for _, r := range got {
		if r == rid(4) {
			t.Fatal("wrong duplicate removed")
		}
	}
}

func TestIOChargedThroughPool(t *testing.T) {
	tr := NewWithCaps(1, 16, 16)
	pool := bufferpool.New(4096)
	for i := 0; i < 5000; i++ {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(int64(i)), rid(i))
	}
	pool.Clear()
	ch := &counter{}
	searchEq(tr, pool, ch, intKey(42))
	if ch.rr < int64(tr.Height()) {
		t.Fatalf("cold search charged %d RRs, want >= height %d", ch.rr, tr.Height())
	}
	// Warm search is free.
	ch2 := &counter{}
	searchEq(tr, pool, ch2, intKey(42))
	if ch2.rr != 0 {
		t.Fatalf("warm search charged %d RRs, want 0", ch2.rr)
	}
}

func TestLeafPagesEstimate(t *testing.T) {
	tr := NewWithCaps(1, 10, 10)
	pool := bufferpool.New(1024)
	if tr.LeafPages() != 1 {
		t.Fatal("empty tree should report 1 leaf page")
	}
	for i := 0; i < 95; i++ {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(int64(i)), rid(i))
	}
	if got := tr.LeafPages(); got != 10 {
		t.Fatalf("LeafPages = %d, want ceil(95/10) = 10", got)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New(1)
	pool := bufferpool.New(64)
	names := []string{"BARBARBAR", "OUGHTPRES", "ABLEABLE", "ESEESEESE", "ANTIANTI"}
	for i, n := range names {
		tr.Insert(pool, bufferpool.NopCharger{}, types.EncodeKey(nil, types.NewString(n)), rid(i))
	}
	got := searchEq(tr, pool, bufferpool.NopCharger{}, types.EncodeKey(nil, types.NewString("OUGHTPRES")))
	if len(got) != 1 || got[0] != rid(1) {
		t.Fatalf("string search = %v", got)
	}
	// Range over all keys returns them in sorted order.
	var order []pagestore.RID
	tr.Range(pool, bufferpool.NopCharger{}, nil, nil, true, true, func(_ []byte, r pagestore.RID) bool {
		order = append(order, r)
		return true
	})
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i, r := range order {
		if names[int(r.Page)*100+int(r.Slot)] != sorted[i] {
			t.Fatalf("string order wrong at %d", i)
		}
	}
}

// Property: the tree agrees with a sorted reference model under random
// inserts and deletes, and invariants hold throughout.
func TestTreeModelProperty(t *testing.T) {
	f := func(ops []int16) bool {
		tr := NewWithCaps(1, 4, 4)
		pool := bufferpool.New(4096)
		model := map[int64]bool{}
		for _, o := range ops {
			v := int64(o % 256)
			if o >= 0 {
				if !model[v] {
					tr.Insert(pool, bufferpool.NopCharger{}, intKey(v), rid(int(v)))
					model[v] = true
				}
			} else if model[v] {
				if !tr.Delete(pool, bufferpool.NopCharger{}, intKey(v), rid(int(v))) {
					return false
				}
				delete(model, v)
			}
		}
		if tr.Validate() != nil {
			return false
		}
		if tr.Len() != int64(len(model)) {
			return false
		}
		var got []int64
		tr.Range(pool, bufferpool.NopCharger{}, nil, nil, true, true, func(_ []byte, r pagestore.RID) bool {
			got = append(got, int64(r.Page)*100+int64(r.Slot))
			return true
		})
		var want []int64
		for v := range model {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New(1)
	pool := bufferpool.New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(int64(i)), rid(i))
	}
}

func BenchmarkSearch(b *testing.B) {
	tr := New(1)
	pool := bufferpool.New(1 << 16)
	for i := 0; i < 100000; i++ {
		tr.Insert(pool, bufferpool.NopCharger{}, intKey(int64(i)), rid(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		searchEq(tr, pool, bufferpool.NopCharger{}, intKey(int64(i%100000)))
	}
}

// TestRangeOnKeyPrefix holds Range's bounds to be key prefixes: on a
// two-column (INT, STRING) key, bounds that encode the leading column alone
// select exactly the entries whose leading value satisfies the operator,
// the way an index scan or an INLJ probe on that column asks. Each leading
// value has a run of 11 entries, so with four entries to a leaf every run
// crosses a leaf boundary; the second column holds 0x00 and 0xFF bytes,
// which a bound padded with 0xFF bytes would mis-order.
func TestRangeOnKeyPrefix(t *testing.T) {
	tr := NewWithCaps(1, 4, 4)
	pool := bufferpool.New(4096)
	seconds := []string{"", "\x00", "a", "a\x00b", "b", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff", "zz", "\x01", "\xfe\xff", "m"}
	type entry struct {
		lead int64
		id   int
	}
	var all []entry
	r := rand.New(rand.NewSource(3))
	for _, i := range r.Perm(10 * len(seconds)) {
		lead, s := int64(i/len(seconds))*3, seconds[i%len(seconds)]
		tr.Insert(pool, bufferpool.NopCharger{}, types.EncodeKey(nil, types.NewInt(lead), types.NewString(s)), rid(i))
		all = append(all, entry{lead, i})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		name           string
		lo, hi         func(v int64) []byte
		loIncl, hiIncl bool
		match          func(lead, v int64) bool
	}{
		{"Eq", intKey, intKey, true, true, func(l, v int64) bool { return l == v }},
		{"Lt", nil, intKey, true, false, func(l, v int64) bool { return l < v }},
		{"Le", nil, intKey, true, true, func(l, v int64) bool { return l <= v }},
		{"Gt", intKey, nil, false, true, func(l, v int64) bool { return l > v }},
		{"Ge", intKey, nil, true, true, func(l, v int64) bool { return l >= v }},
		{"Between", intKey, func(v int64) []byte { return intKey(v + 6) }, true, true,
			func(l, v int64) bool { return v <= l && l <= v+6 }},
	}
	for _, op := range ops {
		for v := int64(-2); v <= 30; v++ {
			var lo, hi []byte
			if op.lo != nil {
				lo = op.lo(v)
			}
			if op.hi != nil {
				hi = op.hi(v)
			}
			var got []int
			tr.Range(pool, bufferpool.NopCharger{}, lo, hi, op.loIncl, op.hiIncl, func(_ []byte, r pagestore.RID) bool {
				got = append(got, int(r.Page)*100+int(r.Slot))
				return true
			})
			var want []int
			for _, e := range all {
				if op.match(e.lead, v) {
					want = append(want, e.id)
				}
			}
			sort.Ints(got)
			sort.Ints(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s %d: %d entries, want %d", op.name, v, len(got), len(want))
			}
		}
	}
}
