package online

import (
	"sync"
	"testing"

	"dotprov/internal/search"
)

// TestSharedBudgetCapsFleetReAdvise is the fleet-plane worker-cap contract:
// 64 tenant managers share one width-8 search.Budget and force re-advises
// concurrently, and the budget's atomic high-water mark proves concurrent
// estimator invocations never exceeded the global cap. Run under -race this
// also exercises the managers' locking against the shared admission counter.
func TestSharedBudgetCapsFleetReAdvise(t *testing.T) {
	const (
		managers = 64
		width    = 8
	)
	bud := search.NewBudget(width)
	mgrs := make([]*Manager, managers)
	for i := range mgrs {
		mgr, ids := newTestManager(t, Config{Budget: bud})
		// Feed a drifted window so the forced re-advise below has real
		// search work to charge against the budget.
		mgr.Observe(dssWindow(ids))
		mgrs[i] = mgr
	}

	gate := make(chan struct{})
	var wg sync.WaitGroup
	for _, m := range mgrs {
		wg.Add(1)
		go func(m *Manager) {
			defer wg.Done()
			<-gate
			if _, err := m.ReAdvise(true); err != nil {
				t.Errorf("ReAdvise: %v", err)
			}
		}(m)
	}
	close(gate)
	wg.Wait()

	if hw := bud.HighWater(); hw > width {
		t.Fatalf("budget high-water %d exceeded the global worker cap %d", hw, width)
	} else if hw == 0 {
		t.Fatal("budget was never charged — re-advises did not run any evaluations")
	}
	if in := bud.InUse(); in != 0 {
		t.Fatalf("budget leaked %d charged invocations after the fleet drained", in)
	}
}
