package search

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
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

// hourly prices a layout at the fixture's per-class prices, one copy per
// member.
func hourly(l catalog.SetLayout) float64 {
	var perHour float64
	for _, set := range l {
		for _, c := range set.Classes() {
			perHour += prices[c]
		}
	}
	return perHour
}

// The H-SSD is priced out of proportion, so the cheap classes win unless
// the SLA forces it.
var prices = map[device.Class]float64{device.HDD: 1, device.LSSD: 5, device.HSSD: 1000}

func newEngine(t *testing.T, workers int, est *fakeEst) *Engine {
	t.Helper()
	eng, err := New(Config{
		Est: est,
		Price: func(m workload.Metrics, l catalog.SetLayout) (float64, bool, error) {
			return hourly(l) * m.Elapsed.Hours(), true, nil
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

func TestNewRequiresEstAndCost(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config should fail")
	}
	if _, err := New(Config{Est: testEst()}); err == nil {
		t.Fatal("missing cost model should fail")
	}
}

func TestEvaluateMemoizes(t *testing.T) {
	est := testEst()
	eng := newEngine(t, 1, est)
	l := single(catalog.Layout{1: device.HSSD, 2: device.LSSD})
	ev1, err := eng.Evaluate(l)
	if err != nil {
		t.Fatal(err)
	}
	// Re-evaluating an equal (but distinct) map must be a memo hit.
	ev2, err := eng.Evaluate(single(catalog.Layout{2: device.LSSD, 1: device.HSSD}))
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
	if _, err := eng.Evaluate(single(catalog.Layout{1: device.HDD, 2: device.LSSD})); err != nil {
		t.Fatal(err)
	}
	if est.calls.Load() != 2 {
		t.Fatalf("estimator called %d times, want 2", est.calls.Load())
	}
}

func TestMemoLimitBoundsRetention(t *testing.T) {
	est := testEst()
	eng, err := New(Config{
		Est:       est,
		Price:     func(m workload.Metrics, l catalog.SetLayout) (float64, bool, error) { return 1, true, nil },
		MemoLimit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cached := single(catalog.Layout{1: device.HSSD})
	overflow := single(catalog.Layout{1: device.LSSD})
	for i := 0; i < 3; i++ {
		if _, err := eng.Evaluate(cached); err != nil {
			t.Fatal(err)
		}
	}
	if est.calls.Load() != 1 {
		t.Fatalf("cached layout estimated %d times, want 1", est.calls.Load())
	}
	// Beyond the limit: still correct, just never retained.
	want, err := eng.Evaluate(overflow)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Evaluate(overflow)
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
	if _, err := eng.Evaluate(l); err == nil {
		t.Fatal("expected estimator error")
	}
	if _, err := eng.Evaluate(l); err == nil {
		t.Fatal("memoized error should persist")
	}
	if est.calls.Load() != 1 {
		t.Fatalf("failing layout estimated %d times, want 1", est.calls.Load())
	}
}

func TestEvaluateAllParallelMatchesSequential(t *testing.T) {
	var layouts []catalog.SetLayout
	for _, c1 := range classes {
		for _, c2 := range classes {
			layouts = append(layouts, single(catalog.Layout{1: c1, 2: c2}))
		}
	}
	seqEng := newEngine(t, 1, testEst())
	seq, err := seqEng.EvaluateAll(layouts)
	if err != nil {
		t.Fatal(err)
	}
	parEng := newEngine(t, 8, testEst())
	par, err := parEng.EvaluateAll(layouts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].TOCCents != par[i].TOCCents || !seq[i].Layout.Equal(par[i].Layout) {
			t.Fatalf("candidate %d differs between widths", i)
		}
	}
}

func TestExhaustiveMatchesBruteForce(t *testing.T) {
	free := []catalog.ObjectID{1, 2, 3}
	baseline := workload.Metrics{PerQuery: []time.Duration{3 * 12 * time.Second}}
	cs := cons(baseline, 0.1)
	for _, workers := range []int{1, 8} {
		est := testEst()
		eng := newEngine(t, workers, est)
		ev, ok, st, err := eng.Exhaustive(cs, Space{Free: free, Digits: digits})
		if err != nil {
			t.Fatal(err)
		}
		if st.Candidates != 27 {
			t.Fatalf("workers=%d evaluated %d, want 27", workers, st.Candidates)
		}
		if int(est.calls.Load()) != 27 {
			t.Fatalf("workers=%d estimator calls %d, want 27", workers, est.calls.Load())
		}
		if !ok {
			t.Fatal("a feasible layout exists")
		}
		// Brute force with the same pipeline, sequentially.
		ref := newEngine(t, 1, testEst())
		var bestTOC float64
		var bestL catalog.SetLayout
		found := false
		for _, c3 := range classes {
			for _, c2 := range classes {
				for _, c1 := range classes {
					l := single(catalog.Layout{1: c1, 2: c2, 3: c3})
					e, err := ref.Evaluate(l)
					if err != nil {
						t.Fatal(err)
					}
					if e.Feasible(cs) && (!found || e.TOCCents < bestTOC) {
						found, bestTOC, bestL = true, e.TOCCents, l
					}
				}
			}
		}
		if !found || ev.TOCCents != bestTOC || !ev.Layout.Equal(bestL) {
			t.Fatalf("workers=%d best %.4g %v, brute force %.4g %v",
				workers, ev.TOCCents, ev.Layout, bestTOC, bestL)
		}
	}
}

func TestExhaustiveHonoursBase(t *testing.T) {
	base := single(catalog.Layout{1: device.HSSD, 2: device.HSSD, 3: device.HSSD})
	baseline := workload.Metrics{PerQuery: []time.Duration{3 * 12 * time.Second}}
	eng := newEngine(t, 1, testEst())
	ev, ok, st, err := eng.Exhaustive(cons(baseline, 0.01),
		Space{Base: base, Free: []catalog.ObjectID{3}, Digits: digits})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates != 3 {
		t.Fatalf("evaluated %d, want 3", st.Candidates)
	}
	if !ok {
		t.Fatal("expected a feasible layout")
	}
	hssd := device.Singleton(device.HSSD)
	if ev.Layout[1] != hssd || ev.Layout[2] != hssd {
		t.Fatal("pinned objects moved")
	}
	// With two objects pinned on the H-SSD the hourly price is already
	// dominated by them, so stretching the elapsed time on a slow class
	// costs more than the H-SSD's own price: the free object stays fast.
	if ev.Layout[3] != hssd {
		t.Fatalf("free object should stay on the H-SSD, got %v", ev.Layout[3])
	}
}

func TestExhaustivePropagatesErrors(t *testing.T) {
	for _, workers := range []int{1, 8} {
		est := testEst()
		est.fail, est.failSet = device.LSSD, true
		eng := newEngine(t, workers, est)
		_, _, _, err := eng.Exhaustive(cons(workload.Metrics{}, 0.5),
			Space{Free: []catalog.ObjectID{1, 2}, Digits: digits})
		if err == nil {
			t.Fatalf("workers=%d: expected estimator error to surface", workers)
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
