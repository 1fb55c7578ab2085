package iosim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/types"
)

func compiledFixture(t *testing.T) (*catalog.Catalog, Profile) {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	prof := NewProfile()
	for i := 0; i < 5; i++ {
		tab, err := cat.CreateTable(string(rune('a'+i)), sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		cat.SetSize(tab.ID, int64(i+1)*1e9)
		prof.Add(tab.ID, device.SeqRead, float64(1000*(i+1)))
		prof.Add(tab.ID, device.RandRead, float64(10*(i+1)))
		prof.Add(tab.ID, device.RandWrite, float64(3*i))
	}
	return cat, prof
}

// randomSets draws a full random layout over the alphabet.
func randomSets(rng *rand.Rand, cat *catalog.Catalog, alphabet []device.ClassSet) catalog.SetLayout {
	sl := make(catalog.SetLayout)
	for _, o := range cat.Objects() {
		sl[o.ID] = alphabet[rng.Intn(len(alphabet))]
	}
	return sl
}

// TestCompiledIOTimeMatchesMap: compiled for the single-copy alphabet, the
// table must reproduce both map-form references exactly on random layouts
// and concurrency levels — Profile.IOTime on the single-class form and
// Profile.SetIOTime on the singleton sets. Single-copy placement is the
// singleton case of the one table, so this is also the parity the former
// twin tables were tested for.
func TestCompiledIOTimeMatchesMap(t *testing.T) {
	cat, prof := compiledFixture(t)
	box := device.Box1()
	rng := rand.New(rand.NewSource(5))
	alphabet := SingletonAlphabet(box)
	for _, conc := range []int{1, 30, 300} {
		cp := CompileProfile(prof, box, conc, cat.NumObjects(), alphabet)
		for trial := 0; trial < 200; trial++ {
			sl := randomSets(rng, cat, alphabet)
			l, ok := sl.SingleLayout()
			if !ok {
				t.Fatal("singleton alphabet produced a replicated layout")
			}
			want, err := prof.IOTime(l, box, conc)
			if err != nil {
				t.Fatal(err)
			}
			wantSet, err := prof.SetIOTime(sl, box, conc)
			if err != nil {
				t.Fatal(err)
			}
			cl, _ := catalog.CompactFromSetLayout(cat, sl)
			got, err := cp.IOTime(cl)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || wantSet != want {
				t.Fatalf("conc %d trial %d: compiled %v, SetIOTime %v, IOTime %v", conc, trial, got, wantSet, want)
			}
		}
	}
}

// TestSetIOTimeMapMatchesCompiled: random replicated layouts over wider
// alphabets (a two-copy cap, every usable set) evaluate identically on the
// map and compiled paths — also on a box that lists a class twice, where
// both price the class at its first device.
func TestSetIOTimeMapMatchesCompiled(t *testing.T) {
	cat, prof := compiledFixture(t)
	twice := device.NewBoxOf("twice", device.New(device.HDD), device.New(device.HSSD), device.BoxHTAP().Device(device.HDD))
	rng := rand.New(rand.NewSource(13))
	for _, box := range []*device.Box{device.Box1(), twice} {
		for _, cap := range []int{2, 0} {
			alphabet := device.EnumerateClassSets(box.Classes(), cap)
			for _, conc := range []int{1, 300} {
				cp := CompileProfile(prof, box, conc, cat.NumObjects(), alphabet)
				for trial := 0; trial < 200; trial++ {
					sl := randomSets(rng, cat, alphabet)
					want, err := prof.SetIOTime(sl, box, conc)
					if err != nil {
						t.Fatal(err)
					}
					cl, ok := catalog.CompactFromSetLayout(cat, sl)
					if !ok {
						t.Fatal("compact conversion failed")
					}
					got, err := cp.IOTime(cl)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s cap %d conc %d trial %d: compiled %v, map %v", box.Name, cap, conc, trial, got, want)
					}
				}
			}
		}
	}
}

// TestSetReplicaSemantics: the replica pricing rules on a hand-checked
// case — reads charged to the best member per I/O type, writes charged to
// every member.
func TestSetReplicaSemantics(t *testing.T) {
	cat, _ := compiledFixture(t)
	box := device.Box1()
	id := catalog.ObjectID(1)
	prof := NewProfile()
	prof.Add(id, device.SeqRead, 500)
	prof.Add(id, device.RandRead, 200)
	prof.Add(id, device.RandWrite, 50)

	pair := device.NewClassSet(device.LSSD, device.HSSD)
	lssd, hssd := box.Device(device.LSSD), box.Device(device.HSSD)
	conc := 1
	min := func(a, b time.Duration) time.Duration {
		if b < a {
			return b
		}
		return a
	}
	want := time.Duration(500*float64(min(lssd.ServiceTime(device.SeqRead, conc), hssd.ServiceTime(device.SeqRead, conc)))) +
		time.Duration(200*float64(min(lssd.ServiceTime(device.RandRead, conc), hssd.ServiceTime(device.RandRead, conc)))) +
		time.Duration(50*float64(lssd.ServiceTime(device.RandWrite, conc))) +
		time.Duration(50*float64(hssd.ServiceTime(device.RandWrite, conc)))

	got, err := prof.SetIOTime(catalog.SetLayout{id: pair}, box, conc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("map pair time %v, hand-computed %v", got, want)
	}
	cp := CompileProfile(prof, box, conc, cat.NumObjects(), []device.ClassSet{pair})
	cl := catalog.NewCompactLayout(cat.NumObjects()) // unprofiled objects need no placement
	cl.Set(id, pair)
	if gotC, err := cp.IOTime(cl); err != nil || gotC != want {
		t.Fatalf("compiled pair time %v (err %v), hand-computed %v", gotC, err, want)
	}

	// Adding a replica never slows reads and never speeds writes: the pair
	// must cost at least each member's reads and at least the sum of writes.
	for _, c := range []device.Class{device.LSSD, device.HSSD} {
		solo, err := prof.SetIOTime(catalog.SetLayout{id: device.Singleton(c)}, box, conc)
		if err != nil {
			t.Fatal(err)
		}
		readsOnly := solo - time.Duration(50*float64(box.Device(c).ServiceTime(device.RandWrite, conc)))
		if got < readsOnly {
			t.Fatalf("pair %v beat member %v's reads-only %v", got, c, readsOnly)
		}
	}
}

// checkDeltaMatchesFull: DeltaIOTime must equal the difference of two full
// evaluations for every object and every (from, to) pair of the alphabet.
func checkDeltaMatchesFull(t *testing.T, box *device.Box, alphabet []device.ClassSet) {
	t.Helper()
	cat, prof := compiledFixture(t)
	cp := CompileProfile(prof, box, 1, cat.NumObjects(), alphabet)
	for _, from := range alphabet {
		base := catalog.CompactUniform(cat, from)
		baseTime, err := cp.IOTime(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range cat.Objects() {
			for _, to := range alphabet {
				moved := base.Clone()
				moved.Set(o.ID, to)
				want, err := cp.IOTime(moved)
				if err != nil {
					t.Fatal(err)
				}
				d, err := cp.DeltaIOTime(o.ID, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if baseTime+d != want {
					t.Fatalf("obj %d %v -> %v: delta %v gives %v, full %v", o.ID, from, to, d, baseTime+d, want)
				}
			}
		}
	}
	// Unprofiled objects move for free.
	if d, err := cp.DeltaIOTime(catalog.ObjectID(200), alphabet[0], alphabet[len(alphabet)-1]); err != nil || d != 0 {
		t.Fatalf("unprofiled delta = %v, %v; want 0, nil", d, err)
	}
}

// TestCompiledDeltaMatchesFull covers the single-copy alphabet.
func TestCompiledDeltaMatchesFull(t *testing.T) {
	checkDeltaMatchesFull(t, device.Box1(), SingletonAlphabet(device.Box1()))
}

// TestSetDeltaMatchesFull covers every usable set of the box.
func TestSetDeltaMatchesFull(t *testing.T) {
	checkDeltaMatchesFull(t, device.Box1(), device.EnumerateClassSets(device.Box1().Classes(), 0))
}

// TestSetTableHelpers: AccumulateTimes reproduces per-object rows for any
// requested alphabet, Covers reports what a compile can serve, and
// AppendRow discriminates objects exactly by their rows.
func TestSetTableHelpers(t *testing.T) {
	cat, prof := compiledFixture(t)
	box := device.Box1()
	all := device.EnumerateClassSets(box.Classes(), 0)
	two := device.EnumerateClassSets(box.Classes(), 2)
	cp := CompileProfile(prof, box, 1, cat.NumObjects(), all)
	if !cp.Covers(two) || !cp.Covers(SingletonAlphabet(box)) {
		t.Fatal("a compile for every usable set must cover its sub-alphabets")
	}
	if CompileProfile(prof, box, 1, cat.NumObjects(), SingletonAlphabet(box)).Covers(two) {
		t.Fatal("a single-copy compile must not claim to cover two-copy digits")
	}
	if cp.Covers([]device.ClassSet{0}) || cp.Covers([]device.ClassSet{device.Singleton(device.HDD)}) || cp.Covers([]device.ClassSet{0xFF}) {
		t.Fatal("the empty set, absent classes and the unset byte are never covered")
	}
	// Accumulate over a sub-alphabet in its own order: columns follow the
	// requested alphabet, not the compiled one.
	table := make([]time.Duration, cat.NumObjects()*len(two))
	cp.AccumulateTimes(table, two)
	hssd := device.Singleton(device.HSSD)
	for _, o := range cat.Objects() {
		row := table[catalog.DenseIndex(o.ID)*len(two) : (catalog.DenseIndex(o.ID)+1)*len(two)]
		var atHSSD time.Duration
		for pos, set := range two {
			if set == hssd {
				atHSSD = row[pos]
			}
		}
		for pos, set := range two {
			d, err := cp.DeltaIOTime(o.ID, hssd, set)
			if err != nil {
				t.Fatal(err)
			}
			if row[pos] != atHSSD+d {
				t.Fatalf("obj %d set %v: table %v, delta-reconstructed %v", o.ID, set, row[pos], atHSSD+d)
			}
		}
	}

	// Objects with identical profiles share a signature row; distinct
	// profiles differ.
	twin := NewProfile()
	twin.Add(1, device.SeqRead, 42)
	twin.Add(2, device.SeqRead, 42)
	twin.Add(3, device.SeqRead, 43)
	tcp := CompileProfile(twin, box, 1, cat.NumObjects(), two)
	r1 := tcp.AppendRow(nil, 1)
	r2 := tcp.AppendRow(nil, 2)
	r3 := tcp.AppendRow(nil, 3)
	if !bytes.Equal(r1, r2) {
		t.Fatal("identical profiles must share a row")
	}
	if bytes.Equal(r1, r3) {
		t.Fatal("distinct profiles must not share a row")
	}
	if len(r1) != len(two)*8 {
		t.Fatalf("row width %d, want one 8-byte column per digit (%d)", len(r1), len(two)*8)
	}
	if z := tcp.AppendRow(nil, 5); !bytes.Equal(z, make([]byte, len(two)*8)) {
		t.Fatal("an unprofiled object must append an all-zero row")
	}
}

// TestIOTimeErrorPaths covers the failure modes of the single-class map
// reference and the compiled evaluator: a profiled object the layout does
// not place, and a profiled object placed on a class the box does not
// carry.
func TestIOTimeErrorPaths(t *testing.T) {
	cat, prof := compiledFixture(t)
	box := device.Box1() // HDD RAID 0, L-SSD, H-SSD: plain HDD absent
	cp := CompileProfile(prof, box, 1, cat.NumObjects(), SingletonAlphabet(box))
	hssd, hdd := device.Singleton(device.HSSD), device.Singleton(device.HDD)

	// Object missing from the layout.
	missing := catalog.NewUniformLayout(cat, device.HSSD)
	delete(missing, 1)
	if _, err := prof.IOTime(missing, box, 1); err == nil || !strings.Contains(err.Error(), "not placed") {
		t.Fatalf("map path: want a not-placed error, got %v", err)
	}
	cl, _ := catalog.CompactFromSetLayout(cat, catalog.SingletonSetLayout(missing))
	if _, err := cp.IOTime(cl); err == nil || !strings.Contains(err.Error(), "not placed") {
		t.Fatalf("compiled path: want a not-placed error, got %v", err)
	}

	// Profiled object on a class absent from the box.
	absent := catalog.NewUniformLayout(cat, device.HSSD)
	absent[1] = device.HDD
	if _, err := prof.IOTime(absent, box, 1); err == nil || !strings.Contains(err.Error(), "absent from box") {
		t.Fatalf("map path: want an absent-class error, got %v", err)
	}
	cla, _ := catalog.CompactFromSetLayout(cat, catalog.SingletonSetLayout(absent))
	if _, err := cp.IOTime(cla); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("compiled path: want an unusable-set error, got %v", err)
	}
	// Delta into or out of an absent class errors too.
	if _, err := cp.DeltaIOTime(1, hssd, hdd); err == nil {
		t.Fatal("delta into an absent class must error")
	}
	if _, err := cp.DeltaIOTime(1, hdd, hssd); err == nil {
		t.Fatal("delta out of an absent class must error")
	}

	// An all-zero I/O vector still demands placement, as on the map path.
	zero := NewProfile()
	zero.Add(2, device.SeqRead, 0)
	zcp := CompileProfile(zero, box, 1, cat.NumObjects(), SingletonAlphabet(box))
	empty := catalog.NewCompactLayout(cat.NumObjects())
	if _, err := zcp.IOTime(empty); err == nil {
		t.Fatal("zero-vector profiled object still requires placement")
	}
	if _, err := zero.IOTime(catalog.Layout{}, box, 1); err == nil {
		t.Fatal("map path: zero-vector profiled object still requires placement")
	}
}

// TestSetIOTimeErrorPaths is the same coverage for the class-set reference,
// plus the cases only sets have: a set with one absent member, the empty
// set, and a valid set the compile's alphabet leaves out.
func TestSetIOTimeErrorPaths(t *testing.T) {
	cat, prof := compiledFixture(t)
	box := device.Box1() // plain HDD absent
	cp := CompileProfile(prof, box, 1, cat.NumObjects(), device.EnumerateClassSets(box.Classes(), 2))

	missing := catalog.NewUniformSetLayout(cat, device.Singleton(device.HSSD))
	delete(missing, 1)
	if _, err := prof.SetIOTime(missing, box, 1); err == nil || !strings.Contains(err.Error(), "not placed") {
		t.Fatalf("map path: want not-placed, got %v", err)
	}
	cl, _ := catalog.CompactFromSetLayout(cat, missing)
	if _, err := cp.IOTime(cl); err == nil || !strings.Contains(err.Error(), "not placed") {
		t.Fatalf("compiled path: want not-placed, got %v", err)
	}

	// A set containing a class the box does not carry.
	bad := catalog.NewUniformSetLayout(cat, device.Singleton(device.HSSD))
	bad[1] = device.NewClassSet(device.HDD, device.HSSD)
	if _, err := prof.SetIOTime(bad, box, 1); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("map path: want unusable-set, got %v", err)
	}
	bcl, _ := catalog.CompactFromSetLayout(cat, bad)
	if _, err := cp.IOTime(bcl); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("compiled path: want unusable-set, got %v", err)
	}

	// The empty set is invalid on the map path.
	empty := catalog.NewUniformSetLayout(cat, device.Singleton(device.HSSD))
	empty[1] = 0
	if _, err := prof.SetIOTime(empty, box, 1); err == nil || !strings.Contains(err.Error(), "invalid class set") {
		t.Fatalf("map path: want invalid-set, got %v", err)
	}

	// Three copies are a usable set for the box but outside a two-copy
	// compile: the table refuses rather than misprices.
	three := catalog.CompactUniform(cat, device.NewClassSet(box.Classes()...))
	if _, err := cp.IOTime(three); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("compiled path: want a set outside the alphabet refused, got %v", err)
	}
}
