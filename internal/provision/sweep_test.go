package provision

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/search"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// countingEstimator is a concurrency-safe profile estimator that counts its
// invocations.
type countingEstimator struct {
	box   *device.Box
	prof  iosim.Profile
	calls atomic.Int64
}

func (e *countingEstimator) Estimate(l catalog.Layout) (workload.Metrics, error) {
	e.calls.Add(1)
	t, err := e.prof.IOTime(l, e.box, 1)
	if err != nil {
		return workload.Metrics{}, err
	}
	return workload.Metrics{Elapsed: t, PerQuery: []time.Duration{t}}, nil
}

// sweepGrid is a 3-axis grid: 2x2x2 count combinations minus the empty box,
// crossed with two alphas = 14 candidates.
func sweepGrid() Grid {
	return Grid{
		Devices: []DeviceOption{
			{Class: device.HDDRAID0, Counts: []int{0, 1}},
			{Class: device.LSSD, Counts: []int{0, 2}},
			{Class: device.HSSD, Counts: []int{0, 1}},
		},
		Alphas: []float64{0, 1},
	}
}

// sweepBase builds the shared sweep input: catalog, profile, estimator
// bound to the grid's universe box.
func sweepBase(t *testing.T, grid Grid, workers int) (core.Input, *countingEstimator) {
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
	prof.Add(ix.ID, device.RandRead, 1e4)
	ps := core.NewProfileSet()
	ps.SetSingle(prof)
	est := &countingEstimator{box: grid.Universe(), prof: prof}
	return core.Input{Cat: cat, Est: est, Profiles: ps, Concurrency: 1, Workers: workers}, est
}

func TestGridEnumerate(t *testing.T) {
	specs, err := sweepGrid().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 14 {
		t.Fatalf("candidates = %d, want 14 (7 non-empty boxes x 2 alphas)", len(specs))
	}
	for i, s := range specs {
		if s.Index != i {
			t.Fatalf("spec %d carries Index %d", i, s.Index)
		}
		box := s.Box()
		if len(box.Devices) != len(s.Units) {
			t.Fatalf("spec %q: box has %d devices, want %d", s.Name, len(box.Devices), len(s.Units))
		}
		for _, u := range s.Units {
			d := box.Device(u.Class)
			if d == nil {
				t.Fatalf("spec %q: class %v missing from box", s.Name, u.Class)
			}
			if want := device.New(u.Class).CapacityBytes * int64(u.Units); d.CapacityBytes != want {
				t.Fatalf("spec %q class %v: capacity %d, want %d (unit scaling)", s.Name, u.Class, d.CapacityBytes, want)
			}
		}
	}
	// MaxClasses prunes heterogeneous boxes.
	g := sweepGrid()
	g.MaxClasses = 1
	specs, err = g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("MaxClasses=1 candidates = %d, want 6 (3 single-class boxes x 2 alphas)", len(specs))
	}
}

func TestGridValidate(t *testing.T) {
	cases := []Grid{
		{},
		{Devices: []DeviceOption{{Class: device.HSSD}}},
		{Devices: []DeviceOption{{Class: device.HSSD, Counts: []int{-1}}}},
		{Devices: []DeviceOption{{Class: device.HSSD, Counts: []int{1}}, {Class: device.HSSD, Counts: []int{1}}}},
		{Devices: []DeviceOption{{Class: device.HSSD, Counts: []int{1}}}, Alphas: []float64{2}},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	// All-zero counts enumerate nothing.
	g := Grid{Devices: []DeviceOption{{Class: device.HSSD, Counts: []int{0}}}}
	if _, err := g.Enumerate(); err == nil {
		t.Fatal("expected error for a grid with no candidates")
	}
}

func TestGridUniverseAndKey(t *testing.T) {
	g := sweepGrid()
	u := g.Universe()
	if len(u.Devices) != 3 {
		t.Fatalf("universe has %d classes, want 3", len(u.Devices))
	}
	if g.Key() == "" || g.Key() != g.Key() {
		t.Fatal("grid key must be non-empty and stable")
	}
	g2 := sweepGrid()
	g2.Alphas = []float64{0, 0.5}
	if g.Key() == g2.Key() {
		t.Fatal("different grids must have different keys")
	}
}

// normalize strips the wall-clock fields, then encodes the choice to
// canonical JSON for byte comparison.
func normalize(t *testing.T, ch *Choice) []byte {
	t.Helper()
	for i := range ch.Results {
		ch.Results[i].Result.PlanTime = 0
	}
	b, err := json.Marshal(ch)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	grid := sweepGrid()
	opts := core.Options{RelativeSLA: 0.25}
	base1, _ := sweepBase(t, grid, 1)
	ch1, err := SweepConfigurations(base1, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	base8, _ := sweepBase(t, grid, 8)
	ch8, err := SweepConfigurations(base8, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ch1.Best < 0 {
		t.Fatal("expected a feasible candidate")
	}
	b1, b8 := normalize(t, ch1), normalize(t, ch8)
	if string(b1) != string(b8) {
		t.Fatalf("Workers=1 and Workers=8 sweeps differ:\n%s\nvs\n%s", b1, b8)
	}
}

// TestSweepEstimatorCallsSumCandidates: a sweep's EstimatorCalls is exactly
// the work its candidates' engines did — the sum of their memo misses, which
// is also what the estimator saw — at any worker count. Within a candidate
// the two DOT policies still share one memo, so misses stay below
// evaluations.
func TestSweepEstimatorCallsSumCandidates(t *testing.T) {
	grid := sweepGrid()
	var calls []int
	for _, workers := range []int{1, 8} {
		base, est := sweepBase(t, grid, workers)
		ch, err := SweepConfigurations(base, grid, core.Options{RelativeSLA: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, r := range ch.Results {
			sum += r.Result.EstimatorCalls
		}
		if saw := int(est.calls.Load()); ch.EstimatorCalls != sum || ch.EstimatorCalls != saw {
			t.Fatalf("workers=%d: Choice.EstimatorCalls = %d, candidates sum to %d, estimator saw %d",
				workers, ch.EstimatorCalls, sum, saw)
		}
		if ch.EstimatorCalls >= ch.Evaluated {
			t.Fatalf("workers=%d: %d estimator calls for %d evaluations: the candidates' engine memos saved nothing",
				workers, ch.EstimatorCalls, ch.Evaluated)
		}
		calls = append(calls, ch.EstimatorCalls)
		// The winner is the cheapest feasible candidate, lowest index on ties.
		for i, r := range ch.Results {
			if !r.Result.Feasible {
				continue
			}
			best := ch.Results[ch.Best].Result
			if r.Result.TOCCents < best.TOCCents {
				t.Fatalf("candidate %d (%g) beats Best (%g)", i, r.Result.TOCCents, best.TOCCents)
			}
			if r.Result.TOCCents == best.TOCCents && i < ch.Best {
				t.Fatalf("tie at %g should break to index %d, got %d", best.TOCCents, i, ch.Best)
			}
		}
	}
	if calls[0] != calls[1] {
		t.Fatalf("EstimatorCalls %d at Workers=1, %d at Workers=8", calls[0], calls[1])
	}
}

// gauge records the peak number of estimator calls in flight at once
// across every gaugingEstimator sharing it.
type gauge struct{ inFlight, peak atomic.Int64 }

// gaugingEstimator is a countingEstimator whose calls are charged to a
// shared gauge.
type gaugingEstimator struct {
	*countingEstimator
	g *gauge
}

func (e gaugingEstimator) Estimate(l catalog.Layout) (workload.Metrics, error) {
	n := e.g.inFlight.Add(1)
	defer e.g.inFlight.Add(-1)
	for {
		p := e.g.peak.Load()
		if n <= p || e.g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(50 * time.Microsecond) // widen the window for an overlap
	return e.countingEstimator.Estimate(l)
}

// TestSweepHonoursSharedBudget: a sweep's candidate searches draw on the
// budget they are given, not on Workers — two sweeps sharing one width-2
// budget, each asking for eight workers, never have more than two
// estimator calls in flight between them, and give every slot back.
func TestSweepHonoursSharedBudget(t *testing.T) {
	const width = 2
	grid := sweepGrid()
	budget := search.NewBudget(width)
	var (
		g     gauge
		calls [2]*countingEstimator
		wg    sync.WaitGroup
	)
	for i := range calls {
		base, est := sweepBase(t, grid, 8)
		calls[i] = est
		base.Est = gaugingEstimator{countingEstimator: est, g: &g}
		base.Budget = budget
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := SweepConfigurations(base, grid, core.Options{RelativeSLA: 0.25}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := g.peak.Load(); p > width {
		t.Fatalf("%d estimator calls in flight at once under a width-%d budget", p, width)
	}
	for i, est := range calls {
		if est.calls.Load() == 0 {
			t.Fatalf("sweep %d never called its estimator", i)
		}
	}
	if hw := budget.HighWater(); hw > width || hw < 1 {
		t.Fatalf("budget high water %d, want 1..%d", hw, width)
	}
	if in := budget.InUse(); in != 0 {
		t.Fatalf("%d budget slots still charged after both sweeps returned", in)
	}
}

func TestSweepFailureReasons(t *testing.T) {
	// A 300 GB database: the 80 GB H-SSD-only box is over capacity, larger
	// boxes hold it.
	grid := Grid{
		Devices: []DeviceOption{
			{Class: device.HDDRAID0, Counts: []int{0, 1}},
			{Class: device.HSSD, Counts: []int{0, 1}},
		},
	}
	base, _ := sweepBase(t, grid, 2)
	base.Cat.SetSize(base.Cat.Lookup("data").ID, 300e9)
	ch, err := SweepConfigurations(base, grid, core.Options{RelativeSLA: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var sawCapacity bool
	for _, r := range ch.Results {
		if r.Result.Feasible {
			if r.Failure != "" {
				t.Fatalf("feasible candidate %q carries failure %q", r.Name, r.Failure)
			}
			continue
		}
		if r.Failure == "" {
			t.Fatalf("infeasible candidate %q has no failure reason", r.Name)
		}
		if strings.Contains(r.Failure, "over capacity") {
			sawCapacity = true
		}
	}
	if !sawCapacity {
		t.Fatal("expected an over-capacity diagnosis for the H-SSD-only box")
	}
	if ch.Best < 0 {
		t.Fatal("the HDD RAID 0 box should be feasible")
	}
}

// TestInfeasibilityReasonNamesAnOverfullStart: a database the box holds but
// its most expensive class does not is diagnosed as a capacity problem —
// the search started over capacity at L0 — not as an unmet SLA; one the top
// class holds keeps the SLA text.
func TestInfeasibilityReasonNamesAnOverfullStart(t *testing.T) {
	base, _ := sweepBase(t, sweepGrid(), 1)
	box, opts := device.Box1(), core.Options{RelativeSLA: 0.25}
	if r := InfeasibilityReason(base.Cat, box, opts); !strings.HasPrefix(r, "SLA unmet") {
		t.Fatalf("11 GB on Box 1: %q, want the SLA text", r)
	}
	base.Cat.SetSize(base.Cat.Lookup("data").ID, 100e9)
	if r := InfeasibilityReason(base.Cat, box, opts); !strings.HasPrefix(r, "over capacity at the start") {
		t.Fatalf("101 GB on Box 1 (80 GB H-SSD): %q, want the over-capacity start named", r)
	}
}
