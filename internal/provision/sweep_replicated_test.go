package provision

import (
	"math"
	"strings"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// replicaSweepBase builds the replicated sweep input: the sweep fixture's
// database priced by an observed estimator (an estimator kind with a
// replica form) over the grid's universe box.
func replicaSweepBase(t *testing.T, grid Grid, workers int) core.Input {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	tab, err := cat.CreateTable("data", sch, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cat.CreateIndex("data_pkey", tab.ID, []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetSize(tab.ID, 10e9)
	cat.SetSize(ix.ID, 1e9)
	prof := iosim.NewProfile()
	prof.Add(tab.ID, device.SeqRead, 1e6)
	prof.Add(tab.ID, device.RandRead, 2e4)
	prof.Add(ix.ID, device.RandRead, 1e4)
	ps := core.NewProfileSet()
	ps.SetSingle(prof)
	est := &workload.ObservedEstimator{
		Box: grid.Universe(), Concurrency: 1,
		PerQuery: []workload.QueryObservation{{Profile: prof, CPU: 50 * time.Millisecond}},
	}
	return core.Input{
		Cat: cat, Est: est, Profiles: ps, Concurrency: 1, Workers: workers,
		Replication: core.ReplicationConfig{Enabled: true, MaxReplicas: 2},
	}
}

// TestSweepConfigurationsReplicated: the replicated sweep picks a feasible
// minimum-TOC candidate, reports every candidate, and is deterministic
// across worker counts.
func TestSweepConfigurationsReplicated(t *testing.T) {
	grid := Grid{
		Devices: []DeviceOption{
			{Class: device.HDDRAID0, Counts: []int{0, 1}},
			{Class: device.LSSD, Counts: []int{0, 2}},
			{Class: device.HSSD, Counts: []int{0, 1}},
		},
	}
	specs, err := grid.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{RelativeSLA: 0.5}
	base := replicaSweepBase(t, grid, 1)
	ch, err := SweepConfigurations(base, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Results) != len(specs) {
		t.Fatalf("results %d, want %d candidates", len(ch.Results), len(specs))
	}
	if ch.Best < 0 {
		t.Fatal("no feasible candidate in a grid containing the full box")
	}
	best := ch.Results[ch.Best]
	if !best.Result.Feasible || best.SetLayout == nil {
		t.Fatalf("best candidate not feasible: %+v", best)
	}
	for id, s := range best.SetLayout {
		if !s.Valid() {
			t.Fatalf("object %d placed on invalid set %#x", id, uint8(s))
		}
	}
	for _, r := range ch.Results {
		if r.Result == nil {
			t.Fatalf("candidate %q has no result", r.Name)
		}
		if !r.Result.Feasible && r.Failure == "" {
			t.Fatalf("infeasible candidate %q has no failure reason", r.Name)
		}
		if r.Result.Feasible && r.Result.TOCCents < best.Result.TOCCents {
			t.Fatalf("candidate %q beats the declared best", r.Name)
		}
	}
	if ch.Evaluated <= 0 {
		t.Fatal("sweep evaluated nothing")
	}
	// A candidate's sweeps (two policies, the copy refinement) share its
	// engine memo, so misses stay below evaluations.
	if ch.EstimatorCalls <= 0 || ch.EstimatorCalls >= ch.Evaluated {
		t.Fatalf("sweep made %d estimator calls for %d evaluations — the engine memos saved nothing", ch.EstimatorCalls, ch.Evaluated)
	}

	par, err := SweepConfigurations(replicaSweepBase(t, grid, 4), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.Best != ch.Best ||
		math.Float64bits(par.Results[par.Best].Result.TOCCents) != math.Float64bits(best.Result.TOCCents) {
		t.Fatalf("replicated sweep not deterministic across workers: %d/%g vs %d/%g",
			par.Best, par.Results[par.Best].Result.TOCCents, ch.Best, best.Result.TOCCents)
	}
}

// TestSweepConfigurationsReplicatedRejectsAlpha: the discrete-sized cost
// models are functions of single-class layouts.
func TestSweepConfigurationsReplicatedRejectsAlpha(t *testing.T) {
	grid := Grid{
		Devices: []DeviceOption{{Class: device.HSSD, Counts: []int{1}}},
		Alphas:  []float64{0, 1},
	}
	base := replicaSweepBase(t, grid, 1)
	_, err := SweepConfigurations(base, grid, core.Options{RelativeSLA: 0.5})
	if err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("nonzero alpha must be rejected, got %v", err)
	}
	base.Est = nil
	grid.Alphas = nil
	if _, err := SweepConfigurations(base, grid, core.Options{RelativeSLA: 0.5}); err == nil {
		t.Fatal("missing estimator must be rejected")
	}
}
