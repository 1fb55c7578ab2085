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

// budgetEngine builds an engine over a one-table catalog that estimates
// through est's map form under the budget, and the layouts it is fed: n
// placements of that table, cycling through every class — distinct layouts
// until the classes run out, memo hits after.
func budgetEngine(t *testing.T, b *Budget, est workload.Estimator, n int) (*Engine, []catalog.SetLayout) {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	tab, err := cat.CreateTable("t", sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Cat:    cat,
		Est:    workload.MapForm(est),
		Price:  func(workload.Metrics, catalog.ClassSpace) (float64, bool, error) { return 1, true, nil },
		Budget: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []catalog.SetLayout
	for i := 0; i < n; i++ {
		out = append(out, catalog.SetLayout{tab.ID: device.Singleton(device.AllClasses[i%len(device.AllClasses)])})
	}
	return e, out
}

// evaluateAll evaluates the layouts through Parallel at the engine's width.
func evaluateAll(e *Engine, layouts []catalog.SetLayout) error {
	return Parallel(e.Workers(), len(layouts), func(i int) error {
		_, err := evalMap(e, layouts[i])
		return err
	})
}

func TestBudgetBoundsAcrossEngines(t *testing.T) {
	const width = 3
	b := NewBudget(width)
	if b.Workers() != width {
		t.Fatalf("Workers = %d, want %d", b.Workers(), width)
	}
	est := &gaugeEstimator{}
	engines := make([]*Engine, 4)
	batches := make([][]catalog.SetLayout, len(engines))
	for i := range engines {
		engines[i], batches[i] = budgetEngine(t, b, est, 64)
		if engines[i].Workers() != width {
			t.Fatalf("engine Workers = %d, want budget width %d", engines[i].Workers(), width)
		}
	}
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := evaluateAll(e, batches[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := est.peak.Load(); got > width {
		t.Fatalf("peak concurrent estimator calls = %d, want <= %d (shared budget)", got, width)
	}
	if got := b.HighWater(); got > width {
		t.Fatalf("budget high water = %d, want <= %d", got, width)
	}
}

func TestNewBudgetSequential(t *testing.T) {
	b := NewBudget(0)
	if b.Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", b.Workers())
	}
	e, layouts := budgetEngine(t, b, &gaugeEstimator{}, 8)
	if e.Workers() != 1 {
		t.Fatalf("engine Workers = %d, want 1", e.Workers())
	}
	if err := evaluateAll(e, layouts); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetAdmissionUnderContention hammers one budget with far more
// callers than slots: 32 goroutines each take and give back a slot 10,000
// times. No more than the width may ever hold a slot at once (by the
// budget's own high-water mark and by an independent gauge), every slot
// comes back (InUse reads 0 afterwards), and every caller finishes — a
// wakeup lost between a release and a parked caller hangs the test until
// its deadline.
func TestBudgetAdmissionUnderContention(t *testing.T) {
	const (
		callers = 32
		rounds  = 10000
	)
	for _, width := range []int{2, 3} {
		b := NewBudget(width)
		var held, peak atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					b.Enter()
					n := held.Add(1)
					for {
						p := peak.Load()
						if n <= p || peak.CompareAndSwap(p, n) {
							break
						}
					}
					held.Add(-1)
					b.Exit()
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("width %d: callers still waiting for a slot after a minute (in use %d)", width, b.InUse())
		}
		if hw := b.HighWater(); hw > width || hw < 1 {
			t.Fatalf("width %d: high water %d, want 1..%d", width, hw, width)
		}
		if p := peak.Load(); p > int64(width) {
			t.Fatalf("width %d: %d callers held a slot at once", width, p)
		}
		if in := b.InUse(); in != 0 {
			t.Fatalf("width %d: %d slots still charged after every caller returned", width, in)
		}
	}
}
