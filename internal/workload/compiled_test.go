package workload

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

func estFixture(t *testing.T) (*catalog.Catalog, iosim.Profile, iosim.Profile) {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	p1, p2 := iosim.NewProfile(), iosim.NewProfile()
	for i := 0; i < 6; i++ {
		tab, err := cat.CreateTable(string(rune('a'+i)), sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		cat.SetSize(tab.ID, int64(i+1)*1e9)
		p1.Add(tab.ID, device.SeqRead, float64(500*(i+1)))
		p1.Add(tab.ID, device.RandRead, float64(20*i))
		p2.Add(tab.ID, device.RandRead, float64(300*(i+1)))
		p2.Add(tab.ID, device.RandWrite, float64(7*i))
	}
	return cat, p1, p2
}

func metricsEqual(a, b Metrics) bool {
	if a.Elapsed != b.Elapsed || len(a.PerQuery) != len(b.PerQuery) {
		return false
	}
	if math.Float64bits(a.Throughput) != math.Float64bits(b.Throughput) {
		return false
	}
	for i := range a.PerQuery {
		if a.PerQuery[i] != b.PerQuery[i] {
			return false
		}
	}
	return true
}

// estimators returns the two profile-driven estimator kinds over the shared
// fixture on Box1.
func estimators(t *testing.T) (*catalog.Catalog, *ObservedEstimator, *ProfileEstimator) {
	t.Helper()
	cat, p1, p2 := estFixture(t)
	box := device.Box1()
	obs := &ObservedEstimator{Box: box, Concurrency: 1, PerQuery: []QueryObservation{
		{Profile: p1, CPU: 250 * time.Millisecond},
		{Profile: p2, CPU: 40 * time.Millisecond},
	}}
	pe, err := NewProfileEstimator(box, 8, p1, 2*time.Second,
		RunStats{Txns: 5000, Elapsed: 90 * time.Second}, catalog.NewUniformLayout(cat, device.HSSD))
	if err != nil {
		t.Fatal(err)
	}
	return cat, obs, pe
}

// maskMap lifts a class-set layout to the mask-valued catalog.Layout that
// NewSetEstimator's reference form reads.
func maskMap(l catalog.SetLayout) catalog.Layout {
	out := make(catalog.Layout, len(l))
	for id, s := range l {
		out[id] = device.Class(s)
	}
	return out
}

// checkCompiledParity drives one estimator compiled for one alphabet
// through a random walk of one-object moves and requires bit-identical
// metrics from every path: the map-form replica reference
// (NewSetEstimator), the full compiled estimate, the chained EstimateDelta
// and a delta from a base the estimator did not evaluate — and, while every
// unit holds one copy, the single-class Estimate too, since single-copy
// search is the singleton alphabet of the same compiled form rather than a
// sibling implementation.
func checkCompiledParity(t *testing.T, src Estimator, cat *catalog.Catalog, alphabet []device.ClassSet, seed int64) {
	t.Helper()
	ce := CompileEstimator(src, cat, alphabet...)
	if ce == src {
		t.Fatalf("%T should compile to a new estimator", src)
	}
	de, ok := ce.(CompactEstimator)
	if !ok {
		t.Fatalf("compiled %T must be a compact estimator", src)
	}
	ref, ok := NewSetEstimator(src)
	if !ok {
		t.Fatalf("%T has no replica form", src)
	}
	rng := rand.New(rand.NewSource(seed))
	cur := catalog.CompactUniform(cat, device.Singleton(device.HSSD))
	curM, err := de.EstimateCompact(cur)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		obj := catalog.ObjectID(1 + rng.Intn(cat.NumObjects()))
		to := alphabet[rng.Intn(len(alphabet))]
		from, _ := cur.Get(obj)
		next := cur.Clone()
		next.Set(obj, to)
		sl := next.ToSetLayout()

		want, err := ref.Estimate(maskMap(sl))
		if err != nil {
			t.Fatal(err)
		}
		if single, ok := sl.SingleLayout(); ok {
			got, err := ce.Estimate(single)
			if err != nil {
				t.Fatal(err)
			}
			if !metricsEqual(got, want) {
				t.Fatalf("%T trial %d: single-class Estimate %+v, replica reference %+v", src, trial, got, want)
			}
		}
		full, err := de.EstimateCompact(next)
		if err != nil {
			t.Fatal(err)
		}
		if !metricsEqual(full, want) {
			t.Fatalf("%T trial %d: EstimateCompact diverges from the map reference: %+v vs %+v", src, trial, full, want)
		}
		// Metrics built outside the estimator carry neither PerQuery nor the
		// throughput form's exact I/O time, whatever their floats say.
		foreign := Metrics{Elapsed: curM.Elapsed, Throughput: curM.Throughput}
		if fm, err := de.EstimateDelta(next, foreign, nil); err != nil || !metricsEqual(fm, want) {
			t.Fatalf("%T trial %d: a delta from a base it did not evaluate must estimate in full: %+v, %v vs %+v", src, trial, fm, err, want)
		}
		if from != to {
			dm, err := de.EstimateDelta(next, curM, []ObjectMove{{Obj: obj, From: from, To: to}})
			if err != nil {
				t.Fatal(err)
			}
			if !metricsEqual(dm, want) {
				t.Fatalf("%T trial %d: delta chain diverged: %+v vs %+v", src, trial, dm, want)
			}
			curM = dm
		}
		cur = next
	}
}

// TestCompiledObservedParity: the compiled ObservedEstimator over the
// single-copy alphabet.
func TestCompiledObservedParity(t *testing.T) {
	cat, obs, _ := estimators(t)
	checkCompiledParity(t, obs, cat, iosim.SingletonAlphabet(obs.Box), 11)
}

// TestCompiledProfileEstimatorParity: same contract for the OLTP
// ProfileEstimator, whose throughput floats are derived — the delta chain
// must keep them bit-identical across hundreds of hops.
func TestCompiledProfileEstimatorParity(t *testing.T) {
	cat, _, pe := estimators(t)
	checkCompiledParity(t, pe, cat, iosim.SingletonAlphabet(pe.Box), 23)
}

// TestSetEstimatorDeltaChain: the same walk over replica moves (adds,
// drops, swaps) at a two-copy cap and over every usable set, on both
// estimator kinds — the property the DOT sweep and the copy refinement rely
// on.
func TestSetEstimatorDeltaChain(t *testing.T) {
	cat, obs, pe := estimators(t)
	for _, cap := range []int{2, 0} {
		alphabet := device.EnumerateClassSets(obs.Box.Classes(), cap)
		checkCompiledParity(t, obs, cat, alphabet, 37)
		checkCompiledParity(t, pe, cat, alphabet, 41)
	}
}

// TestSetEstimatorUnwrapAndFallback: an already-compiled estimator keeps
// its replica form and is re-compiled from its source only when asked for
// digits it lacks; estimator kinds without a replica form price class-set
// layouts through their single-class view and refuse real replication.
func TestSetEstimatorUnwrapAndFallback(t *testing.T) {
	cat, obs, pe := estimators(t)
	two := device.EnumerateClassSets(obs.Box.Classes(), 2)
	for _, src := range []Estimator{obs, pe} {
		pre := CompileEstimator(src, cat)
		if _, ok := NewSetEstimator(pre); !ok {
			t.Fatalf("the compiled %T must keep its replica form", src)
		}
		if again := CompileEstimator(pre, cat); again != pre {
			t.Fatalf("re-compiling %T for the alphabet it has must pass through", src)
		}
		wide := CompileEstimator(pre, cat, two...)
		if wide == pre {
			t.Fatalf("a single-copy compile of %T cannot serve two-copy digits", src)
		}
		if CompileEstimator(wide, cat) != wide || CompileEstimator(wide, cat, two...) != wide {
			t.Fatalf("a two-copy compile of %T covers the single-copy alphabet too", src)
		}
		pair := catalog.CompactUniform(cat, two[len(two)-1])
		if _, err := wide.(CompactEstimator).EstimateCompact(pair); err != nil {
			t.Fatalf("two-copy compile of %T: %v", src, err)
		}
		if _, err := pre.(CompactEstimator).EstimateCompact(pair); err == nil {
			t.Fatalf("single-copy compile of %T must refuse a two-copy layout", src)
		}
	}
	plain := &plainEst{}
	if _, ok := NewSetEstimator(plain); ok {
		t.Fatal("plan-aware estimators have no replica form")
	}
	if _, err := EstimateSet(plain, catalog.NewUniformSetLayout(cat, device.Singleton(device.HSSD))); err != nil {
		t.Fatalf("a singleton layout prices through the single-class view: %v", err)
	}
	if _, err := EstimateSet(plain, catalog.NewUniformSetLayout(cat, two[len(two)-1])); err == nil {
		t.Fatal("a multi-copy layout needs a replica form")
	}
}

// TestSetElapsedDecomposition: for the observed estimator, fixed plus the
// per-object table entries of a layout reconstructs EstimateCompact's
// Elapsed exactly, for any alphabet the compile covers; the throughput
// estimator declines.
func TestSetElapsedDecomposition(t *testing.T) {
	cat, obs, pe := estimators(t)
	all := device.EnumerateClassSets(obs.Box.Classes(), 0)
	compiled := CompileEstimator(obs, cat, all...)
	dec, ok := compiled.(ElapsedDecomposable)
	if !ok {
		t.Fatal("compiled observed estimator must decompose")
	}
	ce := compiled.(CompactEstimator)
	rng := rand.New(rand.NewSource(41))
	for _, alphabet := range [][]device.ClassSet{iosim.SingletonAlphabet(obs.Box), device.EnumerateClassSets(obs.Box.Classes(), 2), all} {
		table := make([]time.Duration, cat.NumObjects()*len(alphabet))
		fixed, ok := dec.AccumulateElapsedTable(table, alphabet)
		if !ok {
			t.Fatal("observed decomposition declined")
		}
		for trial := 0; trial < 50; trial++ {
			cl := catalog.NewCompactLayout(cat.NumObjects())
			sum := fixed
			for _, o := range cat.Objects() {
				pos := rng.Intn(len(alphabet))
				cl.Set(o.ID, alphabet[pos])
				sum += table[catalog.DenseIndex(o.ID)*len(alphabet)+pos]
			}
			m, err := ce.EstimateCompact(cl)
			if err != nil {
				t.Fatal(err)
			}
			if sum != m.Elapsed {
				t.Fatalf("%d digits, trial %d: decomposed %v, estimated %v", len(alphabet), trial, sum, m.Elapsed)
			}
		}
	}

	tdec, ok := CompileEstimator(pe, cat, all...).(ElapsedDecomposable)
	if !ok {
		t.Fatal("compiled throughput estimator must implement the interface")
	}
	if _, ok := tdec.AccumulateElapsedTable(nil, all); ok {
		t.Fatal("throughput objective must decline elapsed decomposition")
	}
}

// TestSetPlacementSignatures: per-object signatures separate objects with
// different behavior and match objects whose rows agree.
func TestSetPlacementSignatures(t *testing.T) {
	cat, obs, _ := estimators(t)
	sig, ok := CompileEstimator(obs, cat, device.EnumerateClassSets(obs.Box.Classes(), 2)...).(PlacementSignable)
	if !ok {
		t.Fatal("compiled observed estimator must be signable")
	}
	s1 := sig.AppendPlacementSignature(nil, 1)
	s1b := sig.AppendPlacementSignature(nil, 1)
	s2 := sig.AppendPlacementSignature(nil, 2)
	if !bytes.Equal(s1, s1b) {
		t.Fatal("signature must be deterministic")
	}
	if bytes.Equal(s1, s2) {
		t.Fatal("objects with different profiles must sign differently")
	}
}

// TestCompileEstimatorFallback: estimators without a compiled form pass
// through CompileEstimator unchanged — and so does the plan-aware DSS
// estimator once something wraps it (the benchmark's traced replay counts
// calls that way): the wrapper hides CompileFor, the search stays on the
// map form, and the wrapped estimator answers it from the same cost tables
// its compiled form reads. Bare, it compiles for single-copy alphabets over
// its engine's catalog and declines anything else.
func TestCompileEstimatorFallback(t *testing.T) {
	cat, _, _ := estFixture(t)
	plain := &plainEst{}
	if got := CompileEstimator(plain, cat); got != Estimator(plain) {
		t.Fatal("non-compilable estimator must pass through unchanged")
	}

	db, q := buildTinyDB(t)
	w := &DSS{Name: "w", Queries: []*plan.Query{q}}
	bare := w.Estimator(db)
	wrapped := &wrappedEst{inner: bare}
	if got := CompileEstimator(wrapped, db.Cat); got != Estimator(wrapped) {
		t.Fatal("a wrapped plan-aware estimator must pass through unchanged")
	}
	compiled, ok := CompileEstimator(bare, db.Cat).(CompactEstimator)
	if !ok {
		t.Fatal("the bare plan-aware estimator must compile for its engine's catalog")
	}
	if _, ok := CompileEstimator(compiled, db.Cat).(CompactEstimator); !ok {
		t.Fatal("re-compiling the compiled form must stay compiled")
	}
	if got := CompileEstimator(bare, cat); got != bare {
		t.Fatal("a foreign catalog must be declined")
	}
	if got := CompileEstimator(bare, db.Cat, device.EnumerateClassSets(db.Box.Classes(), 2)...); got != bare {
		t.Fatal("an alphabet with multi-member sets must be declined")
	}
	if _, ok := compiled.(ElapsedDecomposable); ok {
		t.Fatal("plan times are not additive per unit: no elapsed decomposition")
	}
	if _, ok := compiled.(PlacementSignable); ok {
		t.Fatal("the plan-aware estimator emits no placement signatures")
	}
	// One table behind both: the wrapped map-form call plans, the compiled
	// call for the same placement is a hit.
	counts := bare.(interface{ PlanCounts() (int64, int64) }).PlanCounts
	want, err := wrapped.Estimate(db.Layout())
	if err != nil {
		t.Fatal(err)
	}
	got, err := compiled.EstimateCompact(catalog.CompactUniform(db.Cat, device.Singleton(device.HSSD)))
	if err != nil || got.Elapsed != want.Elapsed {
		t.Fatalf("compiled %v, %v; wrapped map form %v", got.Elapsed, err, want.Elapsed)
	}
	if lookups, plans := counts(); lookups != 2 || plans != 1 {
		t.Fatalf("%d lookups, %d plans; want the second of 2 lookups served from the table", lookups, plans)
	}
}

// wrappedEst forwards Estimate and nothing else.
type wrappedEst struct{ inner Estimator }

func (e *wrappedEst) Estimate(l catalog.Layout) (Metrics, error) { return e.inner.Estimate(l) }

type plainEst struct{}

func (*plainEst) Estimate(l catalog.Layout) (Metrics, error) { return Metrics{}, nil }

// TestThroughputEstimateAllocatesNothing: the compiled throughput
// estimator prices a full layout and a one-move delta without a heap
// allocation, so the OLTP search's per-candidate estimate adds none.
func TestThroughputEstimateAllocatesNothing(t *testing.T) {
	cat, _, pe := estimators(t)
	ce := CompileEstimator(pe, cat).(CompactEstimator)
	base := catalog.CompactUniform(cat, device.Singleton(device.HSSD))
	baseM, err := ce.EstimateCompact(base)
	if err != nil {
		t.Fatal(err)
	}
	next := base.Clone()
	next.Set(1, device.Singleton(device.LSSD))
	moves := []ObjectMove{{Obj: 1, From: device.Singleton(device.HSSD), To: device.Singleton(device.LSSD)}}
	if _, err := ce.EstimateDelta(next, baseM, moves); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { ce.EstimateCompact(base) }); n != 0 {
		t.Errorf("full estimate: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ce.EstimateDelta(next, baseM, moves) }); n != 0 {
		t.Errorf("one-move delta: %v allocations per call, want 0", n)
	}
}
