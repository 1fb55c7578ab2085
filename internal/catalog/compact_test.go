package catalog

import (
	"math"
	"math/rand"
	"testing"

	"dotprov/internal/device"
	"dotprov/internal/types"
)

// compactFixture builds a catalog of n tables (each with a pkey index) and
// assorted sizes.
func compactFixture(t *testing.T, n int) *Catalog {
	t.Helper()
	c := New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	for i := 0; i < n; i++ {
		tab, err := c.CreateTable(string(rune('a'+i)), sch, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := c.CreateIndex(string(rune('a'+i))+"_pkey", tab.ID, []string{"id"}, true)
		if err != nil {
			t.Fatal(err)
		}
		c.SetSize(tab.ID, int64(i+1)*1e9)
		c.SetSize(ix.ID, int64(i+1)*1e8)
	}
	return c
}

// randomSetLayout draws a random (possibly partial) layout over the
// catalog from the given digit alphabet.
func randomSetLayout(rng *rand.Rand, c *Catalog, alphabet []device.ClassSet, partial bool) SetLayout {
	l := make(SetLayout)
	for _, o := range c.Objects() {
		if partial && rng.Intn(4) == 0 {
			continue // leave unplaced
		}
		l[o.ID] = alphabet[rng.Intn(len(alphabet))]
	}
	return l
}

// alphabets are the digit alphabets the table-vs-reference tests run over:
// single copies only, and every set of up to two and up to three copies.
func alphabets(classes []device.Class) [][]device.ClassSet {
	return [][]device.ClassSet{
		device.EnumerateClassSets(classes, 1),
		device.EnumerateClassSets(classes, 2),
		device.EnumerateClassSets(classes, 0),
	}
}

// TestCompactRoundTripProperty: CompactFromSetLayout/ToSetLayout is
// lossless on random full and partial layouts, and compact keys agree with
// map-form equality — equal keys iff Equal layouts.
func TestCompactRoundTripProperty(t *testing.T) {
	cat := compactFixture(t, 7)
	rng := rand.New(rand.NewSource(42))
	seen := map[string]SetLayout{}
	alphas := alphabets(device.AllClasses)
	for trial := 0; trial < 500; trial++ {
		l := randomSetLayout(rng, cat, alphas[trial%len(alphas)], trial%2 == 0)
		cl, ok := CompactFromSetLayout(cat, l)
		if !ok {
			t.Fatalf("trial %d: layout %v should be encodable", trial, l)
		}
		back := cl.ToSetLayout()
		if !back.Equal(l) {
			t.Fatalf("trial %d: round trip lost placements: %v -> %v", trial, l, back)
		}
		key := cl.Key()
		if prev, dup := seen[key]; dup {
			if !prev.Equal(l) {
				t.Fatalf("trial %d: distinct layouts share compact key: %v vs %v", trial, prev, l)
			}
		} else {
			seen[key] = l
		}
		// Same layout re-encoded must reproduce the key (keys are canonical).
		cl2, _ := CompactFromSetLayout(cat, l.Clone())
		if cl2.Key() != key {
			t.Fatalf("trial %d: key not canonical", trial)
		}
	}
}

// TestCompactKeyAgreesWithEqual: two random layouts have equal compact keys
// exactly when SetLayout.Equal holds (the memo-safety contract Key
// documents, on the compact form).
func TestCompactKeyAgreesWithEqual(t *testing.T) {
	cat := compactFixture(t, 5)
	rng := rand.New(rand.NewSource(7))
	alphabet := device.EnumerateClassSets([]device.Class{device.HDD, device.HSSD}, 0)
	for trial := 0; trial < 300; trial++ {
		a := randomSetLayout(rng, cat, alphabet, true)
		b := randomSetLayout(rng, cat, alphabet, true)
		ca, _ := CompactFromSetLayout(cat, a)
		cb, _ := CompactFromSetLayout(cat, b)
		if (ca.Key() == cb.Key()) != a.Equal(b) {
			t.Fatalf("trial %d: key equality %v but Equal %v (a=%v b=%v)",
				trial, ca.Key() == cb.Key(), a.Equal(b), a, b)
		}
		if ca.Equal(cb) != a.Equal(b) {
			t.Fatalf("trial %d: CompactLayout.Equal diverges from SetLayout.Equal", trial)
		}
	}
}

// TestCompactRejectsUnencodable: foreign object IDs and invalid sets push
// conversion back to the map path instead of mis-encoding.
func TestCompactRejectsUnencodable(t *testing.T) {
	cat := compactFixture(t, 2)
	if _, ok := CompactFromSetLayout(cat, SetLayout{ObjectID(99): device.Singleton(device.HDD)}); ok {
		t.Fatal("foreign object ID must not encode")
	}
	for _, bad := range []device.ClassSet{0, 1 << device.NumClasses, 0xFF} {
		if _, ok := CompactFromSetLayout(cat, SetLayout{1: bad}); ok {
			t.Fatalf("invalid set %#x must not encode", uint8(bad))
		}
	}
}

// TestCompactDenseCostCapacityParity: the dense cost and capacity walks
// must agree bit-for-bit with the map-form references on random layouts
// over every alphabet — and, where every unit holds one copy, with the
// single-class Layout form too (single-copy placement is the singleton
// case of class-set placement, not a second cost model).
func TestCompactDenseCostCapacityParity(t *testing.T) {
	cat := compactFixture(t, 6)
	box := device.NewBox("Box 1", device.HDDRAID0, device.LSSD, device.HSSD)
	sizes := cat.DenseSizeBytes()
	rng := rand.New(rand.NewSource(99))
	for ai, alphabet := range alphabets(box.Classes()) {
		for trial := 0; trial < 300; trial++ {
			l := randomSetLayout(rng, cat, alphabet, false)
			cl, _ := CompactFromSetLayout(cat, l)
			wantCost, wantErr := l.CostCentsPerHour(cat, box)
			gotCost, fits, gotErr := cl.PriceDense(sizes, box)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("alphabet %d trial %d: cost error mismatch: %v vs %v", ai, trial, wantErr, gotErr)
			}
			if math.Float64bits(wantCost) != math.Float64bits(gotCost) {
				t.Fatalf("alphabet %d trial %d: cost %v != dense cost %v", ai, trial, wantCost, gotCost)
			}
			if (l.CheckCapacity(cat, box) == nil) != fits {
				t.Fatalf("alphabet %d trial %d: capacity verdict mismatch", ai, trial)
			}
			single, ok := l.SingleLayout()
			if ok != (ai == 0) {
				t.Fatalf("alphabet %d trial %d: SingleLayout ok=%v", ai, trial, ok)
			}
			if !ok {
				continue
			}
			singleCost, err := single.CostCentsPerHour(cat, box)
			if err != nil || math.Float64bits(singleCost) != math.Float64bits(gotCost) {
				t.Fatalf("trial %d: single-class cost %v (%v) != class-set cost %v", trial, singleCost, err, gotCost)
			}
			if (single.CheckCapacity(cat, box) == nil) != (l.CheckCapacity(cat, box) == nil) {
				t.Fatalf("trial %d: single-class and class-set capacity verdicts differ", trial)
			}
			if single.Key() == l.Key() && len(l) > 0 {
				t.Fatalf("trial %d: class keys and mask keys must not collide", trial)
			}
		}
	}
	// A class absent from the box must error on both paths, even when only
	// zero-size objects use it (the map form keys SpaceByClass regardless).
	l := NewUniformSetLayout(cat, device.Singleton(device.HSSD))
	l[1] = device.Singleton(device.HDD) // plain HDD absent from this box
	cl, _ := CompactFromSetLayout(cat, l)
	if _, err := l.CostCentsPerHour(cat, box); err == nil {
		t.Fatal("map cost must reject a class absent from the box")
	}
	if _, fits, err := cl.PriceDense(sizes, box); err == nil || fits {
		t.Fatal("dense pricing must reject a class absent from the box")
	}
}

// TestCompactMutators: Set/Unset/Clone behave like map writes.
func TestCompactMutators(t *testing.T) {
	cat := compactFixture(t, 3)
	hssd, pair := device.Singleton(device.HSSD), device.NewClassSet(device.HDD, device.LSSD)
	cl := CompactUniform(cat, hssd)
	if cl.Len() != cat.NumObjects() {
		t.Fatalf("Len %d, want %d", cl.Len(), cat.NumObjects())
	}
	orig := cl.Clone()
	cl.Set(2, pair)
	if s, ok := cl.Get(2); !ok || s != pair {
		t.Fatalf("Set did not take: %v %v", s, ok)
	}
	if s, _ := orig.Get(2); s != hssd {
		t.Fatal("Clone must be independent")
	}
	cl.Unset(2)
	if _, ok := cl.Get(2); ok {
		t.Fatal("Unset did not take")
	}
	if _, ok := cl.ToSetLayout()[2]; ok {
		t.Fatal("unset slot must be absent from the map form")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set must panic on the empty set")
		}
	}()
	cl.Set(2, 0)
}

// TestClassSpaceMovesMatchFullWalk: a ClassSpace kept current by Move is the
// Space of the mutated layout after every step of a random walk — over
// zero-sized units, unset slots, multi-copy masks and classes the box lacks,
// through steps that empty a class and refill it — and PriceLinear over it
// is PriceDense and the map-form references, bit for bit and error for
// error.
func TestClassSpaceMovesMatchFullWalk(t *testing.T) {
	cat := compactFixture(t, 6)
	box := device.NewBox("Box 1", device.HDDRAID0, device.LSSD, device.HSSD)
	rng := rand.New(rand.NewSource(15))
	for _, o := range cat.Objects() {
		if rng.Intn(3) == 0 {
			cat.SetSize(o.ID, 0)
		} else {
			cat.SetSize(o.ID, rng.Int63n(400e9))
		}
	}
	sizes := cat.DenseSizeBytes()
	// Mostly the box's own classes (so most layouts price), sometimes any
	// class (so some name a class the box lacks).
	digits := append(alphabets(box.Classes()), device.EnumerateClassSets(device.AllClasses, 2))
	check := func(what string, running ClassSpace, cl CompactLayout) {
		t.Helper()
		if full := cl.Space(sizes); running != full {
			t.Fatalf("%s: running totals %+v, full walk %+v (layout %v)", what, running, full, cl.Bytes())
		}
		cost, fits, err := running.PriceLinear(box)
		denseCost, denseFits, denseErr := cl.PriceDense(sizes, box)
		l := cl.ToSetLayout()
		mapCost, mapErr := l.CostCentsPerHour(cat, box)
		if (err == nil) != (denseErr == nil) || (err == nil) != (mapErr == nil) {
			t.Fatalf("%s: errors diverge: running %v, dense %v, map %v", what, err, denseErr, mapErr)
		}
		if err != nil {
			if err.Error() != denseErr.Error() || fits || denseFits {
				t.Fatalf("%s: running error %q (fits %v), dense %q (fits %v)", what, err, fits, denseErr, denseFits)
			}
			return
		}
		if math.Float64bits(cost) != math.Float64bits(denseCost) || math.Float64bits(cost) != math.Float64bits(mapCost) {
			t.Fatalf("%s: cost running %v, dense %v, map %v", what, cost, denseCost, mapCost)
		}
		if fits != denseFits || fits != (l.CheckCapacity(cat, box) == nil) {
			t.Fatalf("%s: capacity verdicts diverge (running %v, dense %v)", what, fits, denseFits)
		}
	}
	for trial := 0; trial < 200; trial++ {
		alphabet := digits[trial%len(digits)]
		cl, _ := CompactFromSetLayout(cat, randomSetLayout(rng, cat, alphabet, true))
		running := cl.Space(sizes)
		move := func(what string, id ObjectID, to device.ClassSet) {
			from, _ := cl.Get(id)
			running.Move(sizes[DenseIndex(id)], from, to)
			if to == 0 {
				cl.Unset(id)
			} else {
				cl.Set(id, to)
			}
			check(what, running, cl)
		}
		objs := cat.Objects()
		for step := 0; step < 40; step++ {
			var to device.ClassSet // one step in five unplaces the unit
			if rng.Intn(5) != 0 {
				to = alphabet[rng.Intn(len(alphabet))]
			}
			move("random step", objs[rng.Intn(len(objs))].ID, to)
		}
		// Empty every class but one, unit by unit, then refill from there.
		home := alphabet[rng.Intn(len(alphabet))]
		for _, o := range objs {
			move("gather", o.ID, home)
		}
		for _, o := range objs {
			move("scatter", o.ID, alphabet[rng.Intn(len(alphabet))])
		}
	}
}

// TestClassSpaceUndefinedClassByte: a slot byte naming a class bit outside
// the class-set range fails pricing with the same error whether the totals
// come from the full walk or from moves made around it, and stops failing
// once the unit itself is moved to a real placement.
func TestClassSpaceUndefinedClassByte(t *testing.T) {
	cat := compactFixture(t, 2)
	box := device.NewBox("Box 1", device.HDDRAID0, device.LSSD, device.HSSD)
	sizes := cat.DenseSizeBytes()
	hssd, lssd := device.Singleton(device.HSSD), device.Singleton(device.LSSD)
	b := CompactUniform(cat, hssd).Bytes()
	const undefined = 0x41 // bit 6: no such class
	b[1] = undefined
	cl := CompactFromBytes(b)
	running := cl.Space(sizes)
	_, _, before := running.PriceLinear(box)
	if before == nil {
		t.Fatal("a byte naming an undefined class must not price")
	}
	running.Move(sizes[0], hssd, lssd)
	b[0] = byte(lssd)
	_, fits, after := running.PriceLinear(box)
	_, _, full := cl.PriceDense(sizes, box)
	if after == nil || fits || after.Error() != before.Error() || full == nil || full.Error() != before.Error() {
		t.Fatalf("error changed across a move: before %q, after %q, full walk %q", before, after, full)
	}
	running.Move(sizes[1], undefined, hssd)
	b[1] = byte(hssd)
	if running != cl.Space(sizes) {
		t.Fatalf("moving the undefined byte away: running %+v, full walk %+v", running, cl.Space(sizes))
	}
	if _, _, err := running.PriceLinear(box); err != nil {
		t.Fatalf("layout without the undefined byte must price: %v", err)
	}
}
