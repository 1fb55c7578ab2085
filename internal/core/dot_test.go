package core

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

// fixture builds a synthetic two-table database on Box 1:
//
//	big (20 GB) + big_pkey (2 GB): scanned sequentially (SR-heavy)
//	small (1 GB) + small_pkey (0.1 GB): probed randomly (RR-heavy)
//
// and a profile-driven estimator, so DOT's economics can be checked exactly:
// big wants the HDD RAID 0 (cheap sequential bandwidth), small wants to stay
// on the H-SSD unless the SLA is loose.
type fix struct {
	cat  *catalog.Catalog
	box  *device.Box
	prof iosim.Profile
	est  workload.Estimator
	ids  map[string]catalog.ObjectID
}

// profEstimator derives workload metrics purely from the profile's I/O time
// under the candidate layout: one "query" whose response time is the total
// I/O time.
type profEstimator struct {
	box  *device.Box
	prof iosim.Profile
	conc int
}

func (e *profEstimator) Estimate(l catalog.Layout) (workload.Metrics, error) {
	t, err := e.prof.IOTime(l, e.box, e.conc)
	if err != nil {
		return workload.Metrics{}, err
	}
	return workload.Metrics{Elapsed: t, PerQuery: []time.Duration{t}}, nil
}

func newFix(t *testing.T) *fix {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	mk := func(name string, tabGB, ixGB float64) (catalog.ObjectID, catalog.ObjectID) {
		tab, err := cat.CreateTable(name, sch, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := cat.CreateIndex(name+"_pkey", tab.ID, []string{"id"}, true)
		if err != nil {
			t.Fatal(err)
		}
		cat.SetSize(tab.ID, int64(tabGB*1e9))
		cat.SetSize(ix.ID, int64(ixGB*1e9))
		return tab.ID, ix.ID
	}
	bigID, bigIx := mk("big", 20, 2)
	smallID, smallIx := mk("small", 1, 0.1)

	prof := iosim.NewProfile()
	// big: 2.5M sequential page reads; its index is barely used.
	prof.Add(bigID, device.SeqRead, 2.5e6)
	prof.Add(bigIx, device.RandRead, 1000)
	// small: 200k random reads through its index.
	prof.Add(smallID, device.RandRead, 200000)
	prof.Add(smallIx, device.RandRead, 200000)

	box := device.Box1()
	return &fix{
		cat:  cat,
		box:  box,
		prof: prof,
		est:  &profEstimator{box: box, prof: prof, conc: 1},
		ids: map[string]catalog.ObjectID{
			"big": bigID, "big_pkey": bigIx, "small": smallID, "small_pkey": smallIx,
		},
	}
}

func (f *fix) input() Input {
	ps := NewProfileSet()
	ps.SetSingle(f.prof)
	return Input{Cat: f.cat, Box: f.box, Est: f.est, Profiles: ps, Concurrency: 1}
}

func TestOptimizeBeatsAllHSSD(t *testing.T) {
	f := newFix(t)
	res, err := Optimize(f.input(), Options{RelativeSLA: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("DOT should find a feasible layout at SLA 0.5")
	}
	l0 := catalog.NewUniformLayout(f.cat, device.HSSD)
	m0, _ := f.est.Estimate(l0)
	toc0, _ := workload.TOCCents(m0, l0, f.cat, f.box)
	if res.TOCCents >= toc0 {
		t.Fatalf("DOT TOC %.4g should beat All H-SSD %.4g", res.TOCCents, toc0)
	}
	// The SR-heavy table leaves the H-SSD. At SLA 0.5 the HDD RAID 0 would
	// blow the cap (122.5s vs the 153s budget leaves no slack), so the
	// L-SSD is the right landing spot; SLA 0.25 releases it to the RAID 0.
	if res.Layout[f.ids["big"]] == device.HSSD {
		t.Errorf("big should leave the H-SSD at SLA 0.5, still on %v", res.Layout[f.ids["big"]])
	}
	relaxed, err := Optimize(f.input(), Options{RelativeSLA: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Layout[f.ids["big"]] != device.HDDRAID0 {
		t.Errorf("at SLA 0.25 big should land on HDD RAID 0, got %v", relaxed.Layout[f.ids["big"]])
	}
	// The RR-heavy small table must stay fast at a tight SLA.
	if res.Layout[f.ids["small"]] == device.HDDRAID0 {
		t.Error("small (random-read heavy) should not land on spinning disks at SLA 0.5")
	}
	if !res.Constraints.Satisfied(res.Metrics) {
		t.Error("result metrics must satisfy the constraints")
	}
	if res.Evaluated < 2 {
		t.Error("DOT should investigate move candidates")
	}
}

func TestRelaxedSLALowersTOC(t *testing.T) {
	f := newFix(t)
	var prev float64 = math.Inf(1)
	for _, sla := range []float64{0.9, 0.5, 0.25, 0.125} {
		res, err := Optimize(f.input(), Options{RelativeSLA: sla})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("SLA %g should be feasible", sla)
		}
		if res.TOCCents > prev+1e-12 {
			t.Fatalf("TOC should not increase as SLA relaxes: %.4g at %g after %.4g", res.TOCCents, sla, prev)
		}
		prev = res.TOCCents
	}
}

func TestSLAOneKeepsEverythingFast(t *testing.T) {
	f := newFix(t)
	res, err := Optimize(f.input(), Options{RelativeSLA: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("SLA 1.0 must be feasible: L0 satisfies it by definition")
	}
	// No move may slow the workload at all, so every object with real I/O
	// pressure stays on the H-SSD.
	if res.Layout[f.ids["small"]] != device.HSSD {
		t.Errorf("small moved to %v at SLA 1.0", res.Layout[f.ids["small"]])
	}
}

func TestCapacityConstraintForcesSpill(t *testing.T) {
	f := newFix(t)
	// H-SSD too small for everything (23.1 GB data, 10 GB budget).
	if err := f.box.SetCapacity(device.HSSD, 10e9); err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(f.input(), Options{RelativeSLA: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("should still be feasible with spill at SLA 0.25")
	}
	if err := res.Layout.CheckCapacity(f.cat, f.box); err != nil {
		t.Fatalf("recommended layout violates capacity: %v", err)
	}
	if res.Layout[f.ids["big"]] == device.HSSD {
		t.Error("20 GB table cannot stay on a 10 GB H-SSD")
	}
}

func TestInfeasibleWhenCapacityImpossible(t *testing.T) {
	f := newFix(t)
	// Nothing fits anywhere.
	for _, c := range f.box.Classes() {
		f.box.SetCapacity(c, 1e9)
	}
	res, err := Optimize(f.input(), Options{RelativeSLA: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("no layout can fit; result must be infeasible")
	}
}

func TestOptimizeRelaxing(t *testing.T) {
	f := newFix(t)
	// Big only fits on the RAID 0, making its move mandatory; at a very
	// tight SLA that move violates the constraint, so relaxation kicks in.
	f.box.SetCapacity(device.HSSD, 5e9)
	f.box.SetCapacity(device.LSSD, 5e9)
	res, sla, err := OptimizeRelaxing(f.input(), Options{RelativeSLA: 0.99}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("relaxation should eventually find a feasible layout")
	}
	if sla >= 0.99 {
		t.Fatalf("SLA should have been relaxed below 0.99, got %g", sla)
	}
	if res.Layout[f.ids["big"]] != device.HDDRAID0 {
		t.Error("big must land on the only class that fits it")
	}
}

func TestOptimizeInputValidation(t *testing.T) {
	f := newFix(t)
	if _, err := Optimize(Input{}, Options{RelativeSLA: 0.5}); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Optimize(f.input(), Options{RelativeSLA: 0}); err == nil {
		t.Error("zero SLA should fail")
	}
	if _, err := Optimize(f.input(), Options{RelativeSLA: 1.5}); err == nil {
		t.Error("SLA > 1 should fail")
	}
	in := f.input()
	in.Profiles = nil
	if _, err := Optimize(in, Options{RelativeSLA: 0.5}); err == nil {
		t.Error("missing profiles should fail")
	}
}

func TestDOTMatchesExhaustiveOnSmallInstance(t *testing.T) {
	f := newFix(t)
	for _, sla := range []float64{0.5, 0.25} {
		dot, err := Optimize(f.input(), Options{RelativeSLA: sla})
		if err != nil {
			t.Fatal(err)
		}
		es, err := Exhaustive(f.input(), Options{RelativeSLA: sla})
		if err != nil {
			t.Fatal(err)
		}
		if !dot.Feasible || !es.Feasible {
			t.Fatalf("both methods should be feasible at SLA %g", sla)
		}
		if es.TOCCents > dot.TOCCents+1e-12 {
			t.Fatalf("ES (%.6g) cannot be worse than DOT (%.6g)", es.TOCCents, dot.TOCCents)
		}
		// Paper §4.4.3: DOT within ~16% of ES.
		if dot.TOCCents > es.TOCCents*1.20 {
			t.Fatalf("DOT TOC %.6g more than 20%% above ES %.6g at SLA %g", dot.TOCCents, es.TOCCents, sla)
		}
		if es.Evaluated != 81 { // 3 classes ^ 4 objects
			t.Fatalf("ES evaluated %d layouts, want 81", es.Evaluated)
		}
	}
}

func TestExhaustiveRefusesHugeInstances(t *testing.T) {
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	for i := 0; i < 20; i++ {
		if _, err := cat.CreateTable(string(rune('a'+i)), sch, nil); err != nil {
			t.Fatal(err)
		}
	}
	box := device.Box1()
	prof := iosim.NewProfile()
	ps := NewProfileSet()
	ps.SetSingle(prof)
	in := Input{Cat: cat, Box: box, Est: &profEstimator{box: box, prof: prof, conc: 1}, Profiles: ps}
	if _, err := Exhaustive(in, Options{RelativeSLA: 0.5}); err == nil {
		t.Fatal("3^20 layouts should exceed the enumeration bound")
	}
}

func TestObjectAdvisorGreedy(t *testing.T) {
	f := newFix(t)
	layout, err := ObjectAdvisor(f.input())
	if err != nil {
		t.Fatal(err)
	}
	// OA is two-tier: everything on cheapest or most expensive.
	for name, id := range f.ids {
		cls := layout[id]
		if cls != device.HDDRAID0 && cls != device.HSSD {
			t.Errorf("%s on %v; OA only uses the two price extremes", name, cls)
		}
	}
	// The RR-heavy small table has the best benefit density and must be on
	// the H-SSD.
	if layout[f.ids["small"]] != device.HSSD {
		t.Error("small should be promoted to H-SSD by OA")
	}
	// Capacity honoured.
	if err := layout.CheckCapacity(f.cat, f.box); err != nil {
		t.Fatal(err)
	}
	// OA respects a shrunken budget.
	f.box.SetCapacity(device.HSSD, 2e9)
	layout2, err := ObjectAdvisor(f.input())
	if err != nil {
		t.Fatal(err)
	}
	var promoted int64
	for id, cls := range layout2 {
		if cls == device.HSSD {
			promoted += f.cat.Object(id).SizeBytes
		}
	}
	if promoted >= 2e9 {
		t.Fatalf("OA exceeded the SSD budget: %d bytes", promoted)
	}
}

func TestSimpleLayouts(t *testing.T) {
	f := newFix(t)
	layouts := SimpleLayouts(f.cat, f.box)
	// Box 1: All HDD RAID 0, All L-SSD, All H-SSD, Index H-SSD Data L-SSD.
	if len(layouts) != 4 {
		t.Fatalf("got %d simple layouts, want 4: %+v", len(layouts), names(layouts))
	}
	var split *NamedLayout
	for i := range layouts {
		if layouts[i].Name == "Index H-SSD Data L-SSD" {
			split = &layouts[i]
		}
	}
	if split == nil {
		t.Fatalf("missing split layout, have %v", names(layouts))
	}
	if split.Layout[f.ids["big"]] != device.LSSD || split.Layout[f.ids["big_pkey"]] != device.HSSD {
		t.Error("split layout should put data on L-SSD and indexes on H-SSD")
	}
}

func names(ls []NamedLayout) []string {
	var out []string
	for _, l := range ls {
		out = append(out, l.Name)
	}
	return out
}

func TestEnumerateMovesOrdering(t *testing.T) {
	f := newFix(t)
	ps := NewProfileSet()
	ps.SetSingle(f.prof)
	moves, err := EnumerateMoves(f.cat, f.box, ps, device.HSSD, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("no moves enumerated")
	}
	// 2 groups of size 2, 3 classes: 9 patterns each, minus identity = 16.
	if len(moves) != 16 {
		t.Fatalf("got %d moves, want 16", len(moves))
	}
	for i := 1; i < len(moves); i++ {
		if moves[i-1].Score > moves[i].Score {
			t.Fatal("moves not sorted by ascending score")
		}
	}
	// Every enumerated move must save money (L0 is the most expensive class
	// and nothing here is faster than the H-SSD).
	for _, m := range moves {
		if m.DeltaCost <= 0 {
			t.Fatalf("move %v has non-positive saving %g", m.Placement, m.DeltaCost)
		}
	}
	// A move places exactly its group's objects.
	changed := 0
	for i := range moves[0].Group.Objects {
		if moves[0].Placement[i] != device.HSSD {
			changed++
		}
	}
	if len(moves[0].Placement) != moves[0].Group.Size() {
		t.Fatalf("placement covers %d objects, group size %d", len(moves[0].Placement), moves[0].Group.Size())
	}
	if changed == 0 || changed > moves[0].Group.Size() {
		t.Fatalf("move changed %d objects, group size %d", changed, moves[0].Group.Size())
	}
}

func TestProfileSetPatternLookup(t *testing.T) {
	ps := NewProfileSet()
	p1 := iosim.NewProfile()
	p1.Add(1, device.SeqRead, 10)
	ps.AddPattern(Pattern{device.HSSD, device.LSSD}, p1)
	got, err := ps.For(Pattern{device.HSSD, device.LSSD})
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(1)[device.SeqRead] != 10 {
		t.Fatal("exact pattern lookup failed")
	}
	// Prefix lookup for a singleton group.
	got, err = ps.For(Pattern{device.HSSD})
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(1)[device.SeqRead] != 10 {
		t.Fatal("prefix pattern lookup failed")
	}
	if _, err := ps.For(Pattern{device.HDD}); err == nil {
		t.Fatal("unknown pattern without fallback should fail")
	}
	ps.SetSingle(p1)
	if _, err := ps.For(Pattern{device.HDD}); err != nil {
		t.Fatal("single fallback should answer any pattern")
	}
	if ps.MaxK() != 2 || ps.Patterns() != 1 {
		t.Fatalf("bookkeeping wrong: maxK=%d patterns=%d", ps.MaxK(), ps.Patterns())
	}
}

func TestBaselinePatternsAndLayout(t *testing.T) {
	f := newFix(t)
	pats := BaselinePatterns(f.cat, f.box)
	if len(pats) != 9 { // 3 classes ^ K=2
		t.Fatalf("got %d baseline patterns, want 9", len(pats))
	}
	l := BaselineLayout(f.cat, Pattern{device.LSSD, device.HSSD})
	if l[f.ids["big"]] != device.LSSD || l[f.ids["big_pkey"]] != device.HSSD {
		t.Fatal("baseline layout should place tables at position 0's class, indexes at position 1's")
	}
	if len(l) != 4 {
		t.Fatalf("baseline layout places %d objects, want 4", len(l))
	}
}

func TestValidateAndRefine(t *testing.T) {
	f := newFix(t)
	// Runner that reports reality 1.4x slower than the estimator thinks:
	// validation must fail first, refinement must tighten, and the final
	// validated layout must pass.
	runner := &skewRunner{f: f, skew: 1.4}
	res, val, err := OptimizeValidated(f.input(), Options{RelativeSLA: 0.5}, runner, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("refinement should converge to a feasible layout")
	}
	if val == nil || !val.Satisfied {
		t.Fatal("final validation must pass")
	}
	if val.PSR != 1 {
		t.Fatalf("final PSR = %g, want 1", val.PSR)
	}
}

// TestValidationMeasuresBaselineOnce: the L0 baseline is run once, first,
// and every refinement round is checked against it, so a pipeline that
// validates n times calls its runner n+1 times. The fixture refines: the
// workload really makes random reads of big that the estimate does not
// know of, so the first recommendation misses the SLA and the refined one,
// priced on the observed reads, is another layout.
func TestValidationMeasuresBaselineOnce(t *testing.T) {
	f := newFix(t)
	real := f.prof.Clone()
	real.Add(f.ids["big"], device.RandRead, 2e5)
	runner := &countingRunner{est: &profEstimator{box: f.box, prof: real, conc: 1}}
	if _, _, err := OptimizeValidated(f.input(), Options{RelativeSLA: 0.5}, runner, 3); err != nil {
		t.Fatal(err)
	}
	l0 := catalog.NewUniformLayout(f.cat, f.box.MostExpensive().Class)
	if len(runner.runs) < 3 {
		t.Fatalf("%d runner calls: the fixture must validate at least twice", len(runner.runs))
	}
	if !runner.runs[0].Equal(l0) {
		t.Fatal("the first run is not the L0 baseline")
	}
	for i, l := range runner.runs[1:] {
		if l.Equal(l0) {
			t.Fatalf("run %d of %d repeats the L0 baseline", i+1, len(runner.runs))
		}
	}
}

// TestOptimizeValidatedCountsEveryRound: the pipeline's Evaluated and
// EstimatorCalls are the sums over every Optimize it ran, the first
// search and each refinement round, not the last round's alone. The
// fixture is TestValidationMeasuresBaselineOnce's: every validation run
// observes the same profile, so every refinement round searches the same
// input and the rounds can be replayed one by one.
func TestOptimizeValidatedCountsEveryRound(t *testing.T) {
	f := newFix(t)
	real := f.prof.Clone()
	real.Add(f.ids["big"], device.RandRead, 2e5)
	runner := &countingRunner{est: &profEstimator{box: f.box, prof: real, conc: 1}}
	opts := Options{RelativeSLA: 0.5}
	res, val, err := OptimizeValidated(f.input(), opts, runner, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Runs are the baseline and one validation per search whose layout was
	// new; a round ends the pipeline without a further run only when the
	// last validation still missed (a fixed point or an infeasible round).
	rounds := len(runner.runs) - 2
	if val != nil && !val.Satisfied {
		rounds++
	}
	if rounds < 1 {
		t.Fatalf("%d runner calls: the fixture must refine at least once", len(runner.runs))
	}
	first, err := Optimize(f.input(), opts)
	if err != nil {
		t.Fatal(err)
	}
	refined := NewProfileSet()
	refined.SetSingle(real)
	in := f.input()
	in.Profiles = refined
	in.Est = &workload.ObservedEstimator{Box: f.box, Concurrency: 1, PerQuery: []workload.QueryObservation{{Profile: real}}}
	round, err := Optimize(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantEval := first.Evaluated + rounds*round.Evaluated
	wantCalls := first.EstimatorCalls + rounds*round.EstimatorCalls
	if res.Evaluated != wantEval || res.EstimatorCalls != wantCalls {
		t.Fatalf("%d rounds: evaluated=%d estimator_calls=%d, want the sums %d and %d (first search %d/%d, each round %d/%d)",
			rounds, res.Evaluated, res.EstimatorCalls, wantEval, wantCalls,
			first.Evaluated, first.EstimatorCalls, round.Evaluated, round.EstimatorCalls)
	}
}

// countingRunner records every layout it is asked to run and measures it
// as est prices it, observing est's profile as one query's.
type countingRunner struct {
	est  *profEstimator
	runs []catalog.Layout
}

func (r *countingRunner) Run(l catalog.Layout) (workload.Observation, error) {
	r.runs = append(r.runs, l.Clone())
	m, err := r.est.Estimate(l)
	if err != nil {
		return workload.Observation{}, err
	}
	return workload.Observation{Metrics: m, Profile: r.est.prof, PerQuery: []workload.QueryObservation{{Profile: r.est.prof}}}, nil
}

// skewRunner measures the profile-model time inflated by a constant factor,
// emulating estimation error. It reports the true profile per "query" so
// the refinement phase has real statistics to re-price.
type skewRunner struct {
	f    *fix
	skew float64
}

func (r *skewRunner) Run(l catalog.Layout) (workload.Observation, error) {
	m, err := r.f.est.Estimate(l)
	if err != nil {
		return workload.Observation{}, err
	}
	m.Elapsed = time.Duration(float64(m.Elapsed) * r.skew)
	for i := range m.PerQuery {
		m.PerQuery[i] = time.Duration(float64(m.PerQuery[i]) * r.skew)
	}
	// The observed counts are the true profile, inflated so that repricing
	// reproduces the skewed measurement.
	obsProf := r.f.prof.Clone()
	obsProf.Scale(r.skew)
	return workload.Observation{
		Metrics:  m,
		Profile:  obsProf,
		PerQuery: []workload.QueryObservation{{Profile: obsProf}},
	}, nil
}
