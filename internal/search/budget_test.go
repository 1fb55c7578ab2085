package search

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// gaugeEstimator tracks the peak number of concurrent Estimate calls.
type gaugeEstimator struct {
	inFlight atomic.Int64
	peak     atomic.Int64
}

func (g *gaugeEstimator) Estimate(l catalog.Layout) (workload.Metrics, error) {
	cur := g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	for {
		p := g.peak.Load()
		if cur <= p || g.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	time.Sleep(100 * time.Microsecond) // widen the race window
	return workload.Metrics{Elapsed: time.Millisecond}, nil
}

func budgetLayouts(t *testing.T, n int) []catalog.SetLayout {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	tab, err := cat.CreateTable("t", sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []catalog.SetLayout
	for i := 0; i < n; i++ {
		out = append(out, catalog.SetLayout{tab.ID: device.Singleton(device.AllClasses[i%len(device.AllClasses)])})
	}
	return out
}

func TestBudgetBoundsAcrossEngines(t *testing.T) {
	const width = 3
	b := NewBudget(width)
	if b.Workers() != width {
		t.Fatalf("Workers = %d, want %d", b.Workers(), width)
	}
	est := &gaugeEstimator{}
	price := func(m workload.Metrics, l catalog.SetLayout) (float64, bool, error) { return 1, true, nil }
	var engines []*Engine
	for i := 0; i < 4; i++ {
		e, err := New(Config{Est: est, Price: price, Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		if e.Workers() != width {
			t.Fatalf("engine Workers = %d, want budget width %d", e.Workers(), width)
		}
		engines = append(engines, e)
	}
	// Many distinct single-object layouts would collide in one engine's
	// memo, so give each engine its own catalog's layouts.
	batches := make([][]catalog.SetLayout, len(engines))
	for i := range engines {
		batches[i] = budgetLayouts(t, 64)
	}
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.EvaluateAll(batches[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := est.peak.Load(); got > width {
		t.Fatalf("peak concurrent estimator calls = %d, want <= %d (shared budget)", got, width)
	}
}

func TestNewBudgetSequential(t *testing.T) {
	b := NewBudget(0)
	if b.Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", b.Workers())
	}
	est := &gaugeEstimator{}
	e, err := New(Config{Est: est, Price: func(m workload.Metrics, l catalog.SetLayout) (float64, bool, error) { return 1, true, nil }, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != 1 {
		t.Fatalf("engine Workers = %d, want 1", e.Workers())
	}
	if _, err := e.EvaluateAll(budgetLayouts(t, 8)); err != nil {
		t.Fatal(err)
	}
}
