package search

import (
	"math"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// compactFix builds a catalog and a profile-backed estimator, for engines
// over its compiled form or its map form.
type compactFix struct {
	cat   *catalog.Catalog
	box   *device.Box
	sizes []int64
	src   workload.Estimator // the estimator est was compiled from
	est   workload.Estimator // compiled (a workload.CompactEstimator)
}

func newCompactFix(t *testing.T, n int) *compactFix {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	prof := iosim.NewProfile()
	for i := 0; i < n; i++ {
		tab, err := cat.CreateTable(string(rune('a'+i)), sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		cat.SetSize(tab.ID, int64(i+1)*1e9)
		prof.Add(tab.ID, device.SeqRead, float64(1000*(i+1)))
		prof.Add(tab.ID, device.RandRead, float64(50*(i+1)))
	}
	box := device.Box1()
	src := &workload.ObservedEstimator{Box: box, Concurrency: 1,
		PerQuery: []workload.QueryObservation{{Profile: prof, CPU: 100 * time.Millisecond}}}
	return &compactFix{
		cat:   cat,
		box:   box,
		sizes: cat.DenseSizeBytes(),
		src:   src,
		est:   workload.CompileEstimator(src, cat),
	}
}

// config assembles an engine over the compiled estimator, or (mapForm)
// over the source estimator's map form, priced by the linear model.
func (f *compactFix) config(workers int, mapForm bool) Config {
	est := f.est.(workload.CompactEstimator)
	if mapForm {
		est = workload.MapForm(f.src)
	}
	return Config{
		Cat: f.cat,
		Est: est,
		Price: func(m workload.Metrics, sp catalog.ClassSpace) (float64, bool, error) {
			perHour, fits, err := sp.PriceLinear(f.box)
			return perHour * m.Elapsed.Hours(), fits, err
		},
		Workers: workers,
	}
}

// digits is the fixture box's single-copy alphabet.
func (f *compactFix) digits() []device.ClassSet { return iosim.SingletonAlphabet(f.box) }

func evalEqual(a, b Eval) bool {
	return math.Float64bits(a.TOCCents) == math.Float64bits(b.TOCCents) &&
		a.CapacityOK == b.CapacityOK &&
		a.Metrics.Elapsed == b.Metrics.Elapsed &&
		a.Compact.Equal(b.Compact)
}

// TestCompactEvaluateSharesMemoWithMap: a map-form layout encoded by
// evalMap and the same compact layout encoded here hit one memo entry —
// the estimator runs once.
func TestCompactEvaluateSharesMemoWithMap(t *testing.T) {
	f := newCompactFix(t, 4)
	eng, err := New(f.config(1, false))
	if err != nil {
		t.Fatal(err)
	}
	l := catalog.NewUniformSetLayout(f.cat, device.Singleton(device.HSSD))
	ev1, err := evalMap(eng, l)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := catalog.CompactFromSetLayout(f.cat, l)
	ev2, err := eng.EvaluateCompact(cl)
	if err != nil {
		t.Fatal(err)
	}
	if !evalEqual(ev1, ev2) {
		t.Fatalf("map and compact evaluations diverge: %+v vs %+v", ev1, ev2)
	}
	st := eng.Stats()
	if st.Evaluated != 2 || st.EstimatorCalls != 1 {
		t.Fatalf("stats %+v: want 2 evaluated, 1 estimator call (shared memo)", st)
	}
}

// TestEvaluateDeltaMatchesFull: a cursor's delta evaluation from a base
// must produce the same Eval (bit-identical TOC) as a fresh full
// evaluation, and memo revisits must not re-estimate.
func TestEvaluateDeltaMatchesFull(t *testing.T) {
	f := newCompactFix(t, 5)
	engA, err := New(f.config(1, false))
	if err != nil {
		t.Fatal(err)
	}
	engB, err := New(f.config(1, false))
	if err != nil {
		t.Fatal(err)
	}
	hssd := device.Singleton(device.HSSD)
	base := catalog.CompactUniform(f.cat, hssd)
	evBase, err := engA.EvaluateCompact(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engB.EvaluateCompact(base); err != nil {
		t.Fatal(err)
	}
	cur := engA.NewCursor(evBase)
	for _, o := range f.cat.Objects() {
		for _, to := range f.digits() {
			if to == hssd {
				continue
			}
			moved := base.Clone()
			moved.Set(o.ID, to)
			move := []workload.ObjectMove{{Obj: o.ID, From: hssd, To: to}}
			dv, err := cur.Try(move)
			if err != nil {
				t.Fatal(err)
			}
			cur.Revert(move)
			fv, err := engB.EvaluateCompact(moved)
			if err != nil {
				t.Fatal(err)
			}
			if !evalEqual(dv, fv) {
				t.Fatalf("obj %d -> %v: delta eval %+v, full eval %+v", o.ID, to, dv, fv)
			}
		}
	}
	// Re-evaluating a delta-estimated layout answers from the memo.
	calls := engA.Stats().EstimatorCalls
	moved := base.Clone()
	moved.Set(1, device.Singleton(device.LSSD))
	if _, err := engA.EvaluateCompact(moved); err != nil {
		t.Fatal(err)
	}
	if got := engA.Stats().EstimatorCalls; got != calls {
		t.Fatalf("memo revisit re-estimated: %d -> %d calls", calls, got)
	}
}

// bnbSpace assembles the fixture's branch-and-bound space over the given
// free objects; bounded adds the elapsed/storage floor from the compiled
// estimator's decomposition.
func (f *compactFix) bnbSpace(t *testing.T, base catalog.CompactLayout, free []catalog.ObjectID, bounded bool) BnBSpace {
	t.Helper()
	sp := BnBSpace{Base: base, Free: free, Digits: f.digits()}
	if !bounded {
		return sp
	}
	sp.SizeGB = make([]float64, len(f.sizes))
	for i, sz := range f.sizes {
		sp.SizeGB[i] = float64(sz) / 1e9
	}
	for _, d := range f.box.Devices {
		sp.PriceCents[d.Class] = d.PriceCents
	}
	m := len(sp.Digits)
	table := make([]time.Duration, f.cat.NumObjects()*m)
	fixed, ok := f.est.(workload.ElapsedDecomposable).AccumulateElapsedTable(table, sp.Digits)
	if !ok {
		t.Fatal("fixture estimator must decompose")
	}
	sp.Bounds = &UnitBounds{Fixed: fixed}
	for _, id := range free {
		d := catalog.DenseIndex(id)
		sp.Bounds.Time = append(sp.Bounds.Time, table[d*m:(d+1)*m]...)
	}
	return sp
}

// mapOdometer is the reference walk over the fixture's map form: the
// sequential odometer (see odometer) on an engine that estimates through
// workload.MapForm.
func (f *compactFix) mapOdometer(t *testing.T, cs workload.Constraints, base catalog.SetLayout, free []catalog.ObjectID) (Eval, bool, int) {
	t.Helper()
	eng, err := New(f.config(1, true))
	if err != nil {
		t.Fatal(err)
	}
	ev, ok, n, err := odometer(eng, cs, base, free, f.digits())
	if err != nil {
		t.Fatal(err)
	}
	return ev, ok, n
}

// TestExhaustiveCompactMatchesMap: the compiled DFS with neither a bound
// nor dominance is the plain enumeration, and must reproduce the odometer
// over the map form bit for bit — same winner, same TOC, same evaluated
// count — at any worker width.
func TestExhaustiveCompactMatchesMap(t *testing.T) {
	f := newCompactFix(t, 4)
	free := []catalog.ObjectID{1, 2, 3, 4}
	baseline, err := f.est.Estimate(catalog.NewUniformLayout(f.cat, device.HSSD))
	if err != nil {
		t.Fatal(err)
	}
	cons := workload.Constraints{Relative: 0.25, Baseline: baseline}
	wantEv, wantOK, wantCount := f.mapOdometer(t, cons, nil, free)
	for _, workers := range []int{1, 8} {
		eng, err := New(f.config(workers, false))
		if err != nil {
			t.Fatal(err)
		}
		ev, ok, st, err := eng.ExhaustiveBnB(cons, f.bnbSpace(t, catalog.NewCompactLayout(f.cat.NumObjects()), free, false))
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantOK || st.Candidates != wantCount || st.SpaceSize != 81 || st.CanonicalSize != 81 || !evalEqual(ev, wantEv) {
			t.Fatalf("workers=%d: compact ES (ok=%v count=%d space=%v toc=%v) != odometer (ok=%v count=%d toc=%v)",
				workers, ok, st.Candidates, st.SpaceSize, ev.TOCCents, wantOK, wantCount, wantEv.TOCCents)
		}
		// Sequential delta path and parallel full path agree with each other
		// through the engine stats: every distinct candidate estimated once.
		if es := eng.Stats(); es.EstimatorCalls != wantCount {
			t.Fatalf("workers=%d: %d estimator calls for %d distinct candidates", workers, es.EstimatorCalls, wantCount)
		}
	}
}

// TestExhaustiveCompactPartialBase: a pinned base layout restricts the
// compact enumeration exactly like the odometer's base.
func TestExhaustiveCompactPartialBase(t *testing.T) {
	f := newCompactFix(t, 4)
	base := catalog.NewUniformSetLayout(f.cat, device.Singleton(device.HSSD))
	free := []catalog.ObjectID{2}
	baseline, err := f.est.Estimate(catalog.NewUniformLayout(f.cat, device.HSSD))
	if err != nil {
		t.Fatal(err)
	}
	cons := workload.Constraints{Relative: 0.25, Baseline: baseline}
	wantEv, wantOK, wantCount := f.mapOdometer(t, cons, base, free)
	eng, _ := New(f.config(1, false))
	bc, ok := catalog.CompactFromSetLayout(f.cat, base)
	if !ok {
		t.Fatal("base must encode")
	}
	ev, found, st, err := eng.ExhaustiveBnB(cons, f.bnbSpace(t, bc, free, false))
	if err != nil {
		t.Fatal(err)
	}
	if found != wantOK || st.Candidates != wantCount || !evalEqual(ev, wantEv) {
		t.Fatalf("compact partial ES diverges: count=%d want %d", st.Candidates, wantCount)
	}
	// Pinned objects stay put in the winner.
	if c, _ := ev.Compact.Get(1); c != device.Singleton(device.HSSD) {
		t.Fatalf("pinned object moved to %v", c)
	}
}

// TestExhaustivePruningPreservesResult: the branch-and-bound floor only
// cuts subtrees that cannot win — the bounded walk returns the odometer's
// layout bit for bit at any worker width, after evaluating strictly fewer
// candidates.
func TestExhaustivePruningPreservesResult(t *testing.T) {
	f := newCompactFix(t, 5)
	free := []catalog.ObjectID{1, 2, 3, 4, 5}
	baseline, err := f.est.Estimate(catalog.NewUniformLayout(f.cat, device.HSSD))
	if err != nil {
		t.Fatal(err)
	}
	cons := workload.Constraints{Relative: 0.25, Baseline: baseline}
	want, wantOK, wantCount := f.mapOdometer(t, cons, nil, free)
	if wantCount != 243 {
		t.Fatalf("unpruned evaluated %d, want 243", wantCount)
	}
	for _, workers := range []int{1, 8} {
		eng, _ := New(f.config(workers, false))
		got, ok, st, err := eng.ExhaustiveBnB(cons, f.bnbSpace(t, catalog.NewCompactLayout(f.cat.NumObjects()), free, true))
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantOK || !evalEqual(got, want) {
			t.Fatalf("workers=%d pruned result differs: %.6g %v vs %.6g %v",
				workers, got.TOCCents, got.Compact.ToSetLayout(), want.TOCCents, want.Compact.ToSetLayout())
		}
		if st.BoundPruned == 0 || st.Candidates >= wantCount {
			t.Fatalf("workers=%d pruning evaluated %d of %d candidates (%d cuts) — no subtree was cut",
				workers, st.Candidates, wantCount, st.BoundPruned)
		}
	}
}
