package online

import (
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
)

// newTestManager builds a manager over the synthetic catalog, observes one
// OLTP window and runs the initial advise.
func newTestManager(t *testing.T, cfg Config) (*Manager, map[string]catalog.ObjectID) {
	t.Helper()
	cat, ids := testCatalog(t)
	box := device.Box1()
	cfg.Cat, cfg.Box = cat, box
	if cfg.SLA == 0 {
		cfg.SLA = 0.25
	}
	mgr, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Observe(oltpWindow(ids))
	dec, err := mgr.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible {
		t.Fatal("initial advise infeasible")
	}
	return mgr, ids
}

func TestManagerNoDriftNoReAdvise(t *testing.T) {
	mgr, ids := newTestManager(t, Config{})
	before := mgr.CurrentSetLayout()
	// Replay the identical window: fingerprints match, zero re-advises.
	for i := 0; i < 3; i++ {
		mgr.Observe(oltpWindow(ids))
		dec, err := mgr.ReAdvise(false)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Drift.Drifted || dec.ReAdvised {
			t.Fatalf("undrifted window %d triggered a re-advise: %+v", i, dec)
		}
	}
	if !mgr.CurrentSetLayout().Equal(before) {
		t.Fatal("layout changed without drift")
	}
	st := mgr.Stats()
	if st.ReAdvises != 0 || st.Drifts != 0 {
		t.Fatalf("stats after undrifted stream: %+v", st)
	}
}

func TestManagerDriftTriggersIncrementalReAdvise(t *testing.T) {
	mgr, ids := newTestManager(t, Config{})
	before := mgr.CurrentSetLayout()

	// Build the cold-search yardstick for the drifted profile BEFORE the
	// manager re-advises: same input construction, full OptimizeBest.
	mgr.mu.Lock()
	driftedInput, err := mgr.input(dssWindow(ids))
	mgr.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.OptimizeBest(driftedInput, core.Options{RelativeSLA: 0.25})
	if err != nil {
		t.Fatal(err)
	}

	mgr.Observe(dssWindow(ids))
	dec, err := mgr.ReAdvise(false)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Drift.Drifted {
		t.Fatalf("mix shift not detected: %+v", dec.Drift)
	}
	if !dec.Feasible {
		t.Fatal("re-advise infeasible")
	}
	if !dec.Incremental {
		t.Fatal("expected the incremental path, not the cold fallback")
	}
	if !dec.ReAdvised {
		t.Fatal("drifted scan-heavy mix should move objects off the OLTP layout")
	}
	// Incremental off the current layout beats the cold search on work.
	if dec.Result.Evaluated >= cold.Evaluated {
		t.Fatalf("incremental evaluated %d, want fewer than cold's %d", dec.Result.Evaluated, cold.Evaluated)
	}
	// The adopted layout's estimated metrics meet the SLA.
	if !dec.Result.Constraints.Satisfied(dec.Result.Metrics) {
		t.Fatalf("adopted layout violates the SLA: %+v", dec.Result.Metrics)
	}
	if mgr.CurrentSetLayout().Equal(before) {
		t.Fatal("deployed layout did not change")
	}
	if len(dec.Migration.Moves) == 0 || dec.Migration.Bytes <= 0 || dec.Migration.Time <= 0 {
		t.Fatalf("migration plan empty: %+v", dec.Migration)
	}

	// The drifted profile is now the reference: the same mix again is
	// quiet.
	mgr.Observe(dssWindow(ids))
	dec2, err := mgr.ReAdvise(false)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.ReAdvised {
		t.Fatalf("re-anchored reference re-fired on the same mix: %+v", dec2)
	}
}

// TestManagerMigrationGateNeverRegressesSLA drives drifted windows through
// managers with progressively tighter migration budgets: every feasible
// decision — incremental or fallback — must produce metrics satisfying the
// SLA constraints, and gated incremental moves must fit the budget.
func TestManagerMigrationGateNeverRegressesSLA(t *testing.T) {
	for _, frac := range []float64{0.9, 0.5, 0.1, 0.01, 0.001} {
		mgr, ids := newTestManager(t, Config{HeadroomFraction: frac})
		mgr.Observe(dssWindow(ids))
		dec, err := mgr.ReAdvise(true)
		if err != nil {
			t.Fatalf("frac %g: %v", frac, err)
		}
		if !dec.Feasible {
			// Allowed: a budget so tight nothing is admissible and even the
			// fallback fails — but then the layout must be unchanged.
			if dec.SetTo != nil {
				t.Fatalf("frac %g: infeasible decision adopted a layout", frac)
			}
			continue
		}
		if !dec.Result.Constraints.Satisfied(dec.Result.Metrics) {
			t.Fatalf("frac %g: adopted metrics violate SLA", frac)
		}
	}
}

func TestManagerThinWindowsAbstain(t *testing.T) {
	mgr, ids := newTestManager(t, Config{})
	// A drifted but thin window (under one I/O) must not trigger anything.
	thin := dssWindow(ids)
	thin.Profile.Scale(1e-9)
	thin.Txns = 1
	mgr.Observe(thin)
	dec, err := mgr.ReAdvise(false)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Drift.Thin || dec.ReAdvised {
		t.Fatalf("thin window should abstain: %+v", dec)
	}
	// Even a FORCED re-advise must abstain on a thin window: optimizing
	// for a near-empty profile would migrate the database onto whatever
	// is cheapest at ~zero estimated I/O time.
	before := mgr.CurrentSetLayout()
	dec, err = mgr.ReAdvise(true)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ReAdvised || dec.Result != nil {
		t.Fatalf("forced thin re-advise ran a search: %+v", dec)
	}
	if !mgr.CurrentSetLayout().Equal(before) {
		t.Fatal("forced thin re-advise changed the layout")
	}
}

func TestManagerReAdviseBeforeAdvise(t *testing.T) {
	cat, _ := testCatalog(t)
	mgr, err := NewManager(Config{Cat: cat, Box: device.Box1(), SLA: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.ReAdvise(false); err == nil {
		t.Fatal("ReAdvise before Advise must error")
	}
	if _, err := mgr.Advise(); err == nil {
		t.Fatal("Advise with no observations must error")
	}
}

// TestWindowInputAnchors: a nil deployed layout is L0 on the throughput
// path — the same estimates as naming L0 — and a deployed layout moves the
// anchor; a window without transactions takes the observed-counts path,
// which has no anchor.
func TestWindowInputAnchors(t *testing.T) {
	cat, ids := testCatalog(t)
	box := device.Box1()
	l0 := catalog.NewUniformSetLayout(cat, device.Singleton(box.MostExpensive().Class))
	cheap := catalog.NewUniformSetLayout(cat, device.Singleton(box.Cheapest().Class))
	at := catalog.NewUniformLayout(cat, box.MostExpensive().Class)
	estimate := func(w Window, deployed catalog.SetLayout) float64 {
		t.Helper()
		in, err := w.Input(cat, box, 4, deployed)
		if err != nil {
			t.Fatal(err)
		}
		if in.Cat != cat || in.Box != box || in.Concurrency != 4 || in.Profiles == nil {
			t.Fatalf("input does not carry the lowering's arguments: %+v", in)
		}
		m, err := in.Est.Estimate(at)
		if err != nil {
			t.Fatal(err)
		}
		return float64(m.Elapsed)
	}
	oltp := oltpWindow(ids)
	if a, b := estimate(oltp, nil), estimate(oltp, l0); a != b {
		t.Fatalf("nil deployed estimates %g, L0 %g", a, b)
	}
	if a, b := estimate(oltp, nil), estimate(oltp, cheap); a == b {
		t.Fatal("the throughput path ignores the deployed layout")
	}
	dss := oltp
	dss.Txns = 0
	if a, b := estimate(dss, nil), estimate(dss, cheap); a != b {
		t.Fatalf("the observed-counts path read the deployed layout: %g vs %g", a, b)
	}
	if _, err := (Window{Txns: 1}).Input(cat, box, 4, nil); err == nil {
		t.Fatal("a transactional window without elapsed time lowered")
	}
}
