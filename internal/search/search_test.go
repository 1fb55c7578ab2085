package search

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// fakeEst charges a per-class service time per placed object. It counts its
// invocations so tests can observe memoization, and is trivially safe for
// concurrent use.
type fakeEst struct {
	calls   atomic.Int64
	t       map[device.Class]time.Duration
	fail    device.Class // layouts using this class error when failSet
	failSet bool
}

func (f *fakeEst) Estimate(l catalog.Layout) (workload.Metrics, error) {
	f.calls.Add(1)
	var e time.Duration
	for _, c := range l {
		if f.failSet && c == f.fail {
			return workload.Metrics{}, fmt.Errorf("fake estimator: class %v rejected", c)
		}
		e += f.t[c]
	}
	return workload.Metrics{Elapsed: e, PerQuery: []time.Duration{e}}, nil
}

var classes = []device.Class{device.HDD, device.LSSD, device.HSSD}

// digits is the single-copy alphabet over classes (ascending masks follow
// ascending classes, so digit order is class order).
var digits = device.EnumerateClassSets(classes, 1)

// single lifts a single-class layout literal to the engine's map form.
func single(l catalog.Layout) catalog.SetLayout { return catalog.SingletonSetLayout(l) }

// evalMap evaluates a map-form layout through EvaluateCompact, refusing one
// that does not encode over the engine's catalog.
func evalMap(e *Engine, l catalog.SetLayout) (Eval, error) {
	cl, ok := catalog.CompactFromSetLayout(e.cfg.Cat, l)
	if !ok {
		return Eval{}, fmt.Errorf("layout does not encode over the engine's catalog")
	}
	return e.EvaluateCompact(cl)
}

// hourly prices a layout's per-class totals at the fixture's per-class
// prices, one charge per copy.
func hourly(sp catalog.ClassSpace) float64 {
	var perHour float64
	for c, n := range sp.Holders {
		perHour += float64(n) * prices[device.Class(c)]
	}
	return perHour
}

// The H-SSD is priced out of proportion, so the cheap classes win unless
// the SLA forces it.
var prices = map[device.Class]float64{device.HDD: 1, device.LSSD: 5, device.HSSD: 1000}

// tables returns a catalog of n tables, IDs 1 to n.
func tables(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	for i := 0; i < n; i++ {
		if _, err := cat.CreateTable(string(rune('a'+i)), sch, nil); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// newEngine builds an engine over a three-table catalog that estimates
// through est's map form.
func newEngine(t *testing.T, workers int, est *fakeEst) *Engine {
	t.Helper()
	eng, err := New(Config{
		Cat: tables(t, 3),
		Est: workload.MapForm(est),
		Price: func(m workload.Metrics, sp catalog.ClassSpace) (float64, bool, error) {
			return hourly(sp) * m.Elapsed.Hours(), true, nil
		},
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testEst() *fakeEst {
	return &fakeEst{t: map[device.Class]time.Duration{
		device.HDD:  100 * time.Second,
		device.LSSD: 20 * time.Second,
		device.HSSD: 4 * time.Second,
	}}
}

func cons(baseline workload.Metrics, rel float64) workload.Constraints {
	return workload.Constraints{Relative: rel, Baseline: baseline}
}

// odometer is the reference exhaustive walk the branch-and-bound search is
// held to: every layout of the space in odometer order (free[0] cycles
// fastest) over base, each evaluated in turn through evalMap, with
// a feasible candidate replacing the incumbent only at a strictly lower TOC
// — so ties go to the lowest index. It returns the winner, whether there is
// one, how many layouts it evaluated, and the first error.
func odometer(eng *Engine, cs workload.Constraints, base catalog.SetLayout, free []catalog.ObjectID, digits []device.ClassSet) (Eval, bool, int, error) {
	l := catalog.SetLayout{}
	if base != nil {
		l = base.Clone()
	}
	pos := make([]int, len(free))
	var best Eval
	found := false
	for n := 1; ; n++ {
		for i, id := range free {
			l[id] = digits[pos[i]]
		}
		ev, err := evalMap(eng, l)
		if err != nil {
			return Eval{}, false, n, err
		}
		if ev.Feasible(cs) && (!found || ev.TOCCents < best.TOCCents) {
			best, found = ev, true
		}
		i := 0
		for ; i < len(free); i++ {
			if pos[i]++; pos[i] < len(digits) {
				break
			}
			pos[i] = 0
		}
		if i == len(free) {
			return best, found, n, nil
		}
	}
}

func TestNewRequiresEstAndCost(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config should fail")
	}
	if _, err := New(Config{Cat: tables(t, 1), Est: workload.MapForm(testEst())}); err == nil {
		t.Fatal("missing cost model should fail")
	}
}

func TestEvaluateMemoizes(t *testing.T) {
	est := testEst()
	eng := newEngine(t, 1, est)
	l := single(catalog.Layout{1: device.HSSD, 2: device.LSSD})
	ev1, err := evalMap(eng, l)
	if err != nil {
		t.Fatal(err)
	}
	// Re-evaluating an equal (but distinct) map must be a memo hit.
	ev2, err := evalMap(eng, single(catalog.Layout{2: device.LSSD, 1: device.HSSD}))
	if err != nil {
		t.Fatal(err)
	}
	if est.calls.Load() != 1 {
		t.Fatalf("estimator called %d times, want 1", est.calls.Load())
	}
	if ev1.TOCCents != ev2.TOCCents || ev1.Metrics.Elapsed != ev2.Metrics.Elapsed {
		t.Fatal("memo hit returned different evaluation")
	}
	st := eng.Stats()
	if st.Evaluated != 2 || st.EstimatorCalls != 1 || st.MemoHits() != 1 {
		t.Fatalf("stats %+v, want 2 evaluated / 1 call / 1 hit", st)
	}
	// A different layout is a miss.
	if _, err := evalMap(eng, single(catalog.Layout{1: device.HDD, 2: device.LSSD})); err != nil {
		t.Fatal(err)
	}
	if est.calls.Load() != 2 {
		t.Fatalf("estimator called %d times, want 2", est.calls.Load())
	}
	// A layout naming an object the catalog lacks is no candidate.
	if _, err := evalMap(eng, single(catalog.Layout{1: device.HDD, 9: device.LSSD})); err == nil {
		t.Fatal("a layout that does not encode must be refused")
	}
}

func TestMemoLimitBoundsRetention(t *testing.T) {
	est := testEst()
	eng, err := New(Config{
		Cat:       tables(t, 1),
		Est:       workload.MapForm(est),
		Price:     func(workload.Metrics, catalog.ClassSpace) (float64, bool, error) { return 1, true, nil },
		MemoLimit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cached := single(catalog.Layout{1: device.HSSD})
	overflow := single(catalog.Layout{1: device.LSSD})
	for i := 0; i < 3; i++ {
		if _, err := evalMap(eng, cached); err != nil {
			t.Fatal(err)
		}
	}
	if est.calls.Load() != 1 {
		t.Fatalf("cached layout estimated %d times, want 1", est.calls.Load())
	}
	// Beyond the limit: still correct, just never retained.
	want, err := evalMap(eng, overflow)
	if err != nil {
		t.Fatal(err)
	}
	got, err := evalMap(eng, overflow)
	if err != nil {
		t.Fatal(err)
	}
	if got.TOCCents != want.TOCCents || got.Metrics.Elapsed != want.Metrics.Elapsed {
		t.Fatal("uncached evaluation differs from first")
	}
	if est.calls.Load() != 3 {
		t.Fatalf("estimator called %d times, want 3 (1 cached + 2 uncached)", est.calls.Load())
	}
	st := eng.Stats()
	if st.Evaluated != 5 || st.EstimatorCalls != 3 {
		t.Fatalf("stats %+v, want 5 evaluated / 3 calls", st)
	}
}

func TestEvaluateMemoizesErrors(t *testing.T) {
	est := testEst()
	est.fail, est.failSet = device.HDD, true
	eng := newEngine(t, 1, est)
	l := single(catalog.Layout{1: device.HDD})
	if _, err := evalMap(eng, l); err == nil {
		t.Fatal("expected estimator error")
	}
	if _, err := evalMap(eng, l); err == nil {
		t.Fatal("memoized error should persist")
	}
	if est.calls.Load() != 1 {
		t.Fatalf("failing layout estimated %d times, want 1", est.calls.Load())
	}
}

// TestParallelEvaluateMatchesSequential: evaluations fanned out over eight
// goroutines through Parallel — every layout twice, so concurrent requests
// for one layout meet in the memo — equal the sequential ones, and each
// distinct layout is estimated once. Run it under -race.
func TestParallelEvaluateMatchesSequential(t *testing.T) {
	var layouts []catalog.SetLayout
	for pass := 0; pass < 2; pass++ {
		for _, c1 := range classes {
			for _, c2 := range classes {
				layouts = append(layouts, single(catalog.Layout{1: c1, 2: c2}))
			}
		}
	}
	evaluate := func(workers int) ([]Eval, *fakeEst) {
		est := testEst()
		eng := newEngine(t, workers, est)
		evs := make([]Eval, len(layouts))
		if err := Parallel(workers, len(layouts), func(i int) (err error) {
			evs[i], err = evalMap(eng, layouts[i])
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return evs, est
	}
	seq, _ := evaluate(1)
	par, est := evaluate(8)
	for i := range seq {
		if seq[i].TOCCents != par[i].TOCCents || !seq[i].Compact.Equal(par[i].Compact) {
			t.Fatalf("candidate %d differs between widths", i)
		}
	}
	if got := est.calls.Load(); got != int64(len(layouts)/2) {
		t.Fatalf("%d estimator calls for %d distinct layouts", got, len(layouts)/2)
	}
}

// TestExhaustiveMatchesBruteForce: the branch-and-bound walk over an
// estimator that offers neither bound nor signatures visits every layout
// once and returns the odometer's winner, sequentially and in parallel.
func TestExhaustiveMatchesBruteForce(t *testing.T) {
	free := []catalog.ObjectID{1, 2, 3}
	baseline := workload.Metrics{PerQuery: []time.Duration{3 * 12 * time.Second}}
	cs := cons(baseline, 0.1)
	want, wantOK, n, err := odometer(newEngine(t, 1, testEst()), cs, nil, free, digits)
	if err != nil || !wantOK || n != 27 {
		t.Fatalf("odometer: %d layouts, found=%v, %v", n, wantOK, err)
	}
	for _, workers := range []int{1, 8} {
		est := testEst()
		eng := newEngine(t, workers, est)
		ev, ok, st, err := eng.ExhaustiveBnB(cs, BnBSpace{Free: free, Digits: digits})
		if err != nil {
			t.Fatal(err)
		}
		if st.Candidates != 27 {
			t.Fatalf("workers=%d evaluated %d, want 27", workers, st.Candidates)
		}
		if int(est.calls.Load()) != 27 {
			t.Fatalf("workers=%d estimator calls %d, want 27", workers, est.calls.Load())
		}
		if !ok || !evalEqual(ev, want) {
			t.Fatalf("workers=%d best %.4g %v, odometer %.4g %v",
				workers, ev.TOCCents, ev.Compact.ToSetLayout(), want.TOCCents, want.Compact.ToSetLayout())
		}
	}
}

func TestExhaustiveHonoursBase(t *testing.T) {
	base := single(catalog.Layout{1: device.HSSD, 2: device.HSSD, 3: device.HSSD})
	baseline := workload.Metrics{PerQuery: []time.Duration{3 * 12 * time.Second}}
	cs := cons(baseline, 0.01)
	free := []catalog.ObjectID{3}
	eng := newEngine(t, 1, testEst())
	bc, ok := catalog.CompactFromSetLayout(eng.cfg.Cat, base)
	if !ok {
		t.Fatal("base must encode")
	}
	ev, ok, st, err := eng.ExhaustiveBnB(cs, BnBSpace{Base: bc, Free: free, Digits: digits})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates != 3 {
		t.Fatalf("evaluated %d, want 3", st.Candidates)
	}
	if !ok {
		t.Fatal("expected a feasible layout")
	}
	want, _, _, err := odometer(newEngine(t, 1, testEst()), cs, base, free, digits)
	if err != nil || !evalEqual(ev, want) {
		t.Fatalf("winner %v, odometer %v (%v)", ev.Compact.ToSetLayout(), want.Compact.ToSetLayout(), err)
	}
	hssd := device.Singleton(device.HSSD)
	got := ev.Compact.ToSetLayout()
	if got[1] != hssd || got[2] != hssd {
		t.Fatal("pinned objects moved")
	}
	// With two objects pinned on the H-SSD the hourly price is already
	// dominated by them, so stretching the elapsed time on a slow class
	// costs more than the H-SSD's own price: the free object stays fast.
	if got[3] != hssd {
		t.Fatalf("free object should stay on the H-SSD, got %v", got[3])
	}
}

func TestExhaustivePropagatesErrors(t *testing.T) {
	free := []catalog.ObjectID{1, 2}
	failing := func() *fakeEst {
		est := testEst()
		est.fail, est.failSet = device.LSSD, true
		return est
	}
	_, _, _, want := odometer(newEngine(t, 1, failing()), cons(workload.Metrics{}, 0.5), nil, free, digits)
	if want == nil {
		t.Fatal("odometer: expected the estimator error")
	}
	for _, workers := range []int{1, 8} {
		eng := newEngine(t, workers, failing())
		_, _, _, err := eng.ExhaustiveBnB(cons(workload.Metrics{}, 0.5), BnBSpace{Free: free, Digits: digits})
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("workers=%d: error %v, odometer %v", workers, err, want)
		}
	}
}

func TestParallelOrderAndErrors(t *testing.T) {
	// Inline path preserves order and stops at the first error.
	var order []int
	err := Parallel(1, 5, func(i int) error {
		order = append(order, i)
		if i == 2 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom 2" {
		t.Fatalf("err = %v, want boom 2", err)
	}
	if len(order) != 3 {
		t.Fatalf("inline path ran %d items, want 3", len(order))
	}
	// Parallel path returns the lowest-index error.
	err = Parallel(4, 64, func(i int) error {
		if i%10 == 3 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom 3" {
		t.Fatalf("err = %v, want boom 3", err)
	}
	// All items run on the parallel happy path.
	var n atomic.Int64
	if err := Parallel(4, 100, func(i int) error { n.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d items, want 100", n.Load())
	}
}

// TestParallelAllocs pins what one fan-out allocates: the shared state in
// one object and the one goroutine beside the caller's.
func TestParallelAllocs(t *testing.T) {
	fn := func(int) error { return nil }
	got := testing.AllocsPerRun(200, func() { _ = Parallel(2, 2, fn) })
	t.Logf("Parallel(2, 2, fn) allocates %g times", got)
	if got > 2 {
		t.Fatalf("Parallel(2, 2, fn) allocates %g times, want at most 2", got)
	}
}
