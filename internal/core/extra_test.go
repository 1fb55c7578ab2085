package core

import (
	"fmt"
	"strings"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

func TestExhaustivePartial(t *testing.T) {
	f := newFix(t)
	in := f.input()
	// Pin everything to H-SSD; free only the big table and its index.
	base := catalog.NewUniformLayout(f.cat, device.HSSD)
	free := []catalog.ObjectID{f.ids["big"], f.ids["big_pkey"]}
	res, err := ExhaustivePartial(in, Options{RelativeSLA: 0.25}, free, base)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("partial ES should find a feasible layout")
	}
	if res.Evaluated != 9 { // 3 classes ^ 2 free objects
		t.Fatalf("evaluated %d layouts, want 9", res.Evaluated)
	}
	// Pinned objects must stay where the base put them.
	if res.Layout[f.ids["small"]] != device.HSSD || res.Layout[f.ids["small_pkey"]] != device.HSSD {
		t.Fatal("pinned objects moved")
	}
	// The free big table should have escaped the expensive class.
	if res.Layout[f.ids["big"]] == device.HSSD {
		t.Fatal("ES left the scan-heavy table on the most expensive class")
	}
	// Full ES over the free set can never be beaten by DOT restricted the
	// same way, and must not be worse than staying at base.
	baseMetrics, _ := in.Est.Estimate(base)
	baseTOC, _ := workload.TOCCents(baseMetrics, base, f.cat, f.box)
	if res.TOCCents > baseTOC {
		t.Fatalf("partial ES TOC %g worse than pinned base %g", res.TOCCents, baseTOC)
	}
}

func TestExhaustivePartialValidation(t *testing.T) {
	f := newFix(t)
	in := f.input()
	base := catalog.NewUniformLayout(f.cat, device.HSSD)
	if _, err := ExhaustivePartial(in, Options{RelativeSLA: 0}, nil, base); err == nil {
		t.Fatal("zero SLA should fail")
	}
}

// TestExhaustivePartialRejectsBadFreeList: a free list naming an object the
// catalog does not have, or the same object twice, is an error with either
// estimator form, before any space is built — the walk indexes dense
// tables by ID, and a repeated ID would count a different space.
func TestExhaustivePartialRejectsBadFreeList(t *testing.T) {
	f := newCompiledFix(t)
	base := catalog.NewUniformLayout(f.cat, device.HSSD)
	big, ix := f.ids["big"], f.ids["big_pkey"]
	for _, tc := range []struct {
		name string
		free []catalog.ObjectID
		want string // "" = accepted
	}{
		{"valid", []catalog.ObjectID{big, ix}, ""},
		{"unknown", []catalog.ObjectID{big, 999}, "not in the catalog"},
		{"zero id", []catalog.ObjectID{0}, "not in the catalog"},
		{"duplicate", []catalog.ObjectID{big, ix, big}, "twice"},
	} {
		for _, noCompile := range []bool{false, true} {
			in := f.input()
			in.NoCompile = noCompile
			res, err := ExhaustivePartial(in, Options{RelativeSLA: 0.5}, tc.free, base)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("%s (NoCompile=%v): %v", tc.name, noCompile, err)
			case tc.want == "" && res.Search.SpaceSize != 9:
				t.Fatalf("%s (NoCompile=%v): space of %g, want 9", tc.name, noCompile, res.Search.SpaceSize)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("%s (NoCompile=%v): want an error naming %q, got %v", tc.name, noCompile, tc.want, err)
			}
		}
	}
}

// TestPhantomObjectRefused: a caller-supplied layout — a pinned base, a
// deployed seed — that places an object the catalog does not have, or
// places one on something that is not a class set, is refused with an error
// naming the object, on either evaluation form. It must never come back in
// the answer.
func TestPhantomObjectRefused(t *testing.T) {
	f := newCompiledFix(t)
	big := f.ids["big"]
	phantom := catalog.NewUniformLayout(f.cat, device.HSSD)
	phantom[999] = device.HDD
	badClass := catalog.NewUniformLayout(f.cat, device.HSSD)
	badClass[big] = device.Class(device.NumClasses + 1)
	badSet := catalog.SingletonSetLayout(catalog.NewUniformLayout(f.cat, device.HSSD))
	badSet[big] = 0
	opts := Options{RelativeSLA: 0.5}
	for _, noCompile := range []bool{false, true} {
		in := f.input()
		in.NoCompile = noCompile
		for _, tc := range []struct {
			name string
			obj  catalog.ObjectID
			run  func() (*Result, error)
		}{
			{"partial base, unknown object", 999, func() (*Result, error) {
				return ExhaustivePartial(in, opts, []catalog.ObjectID{big}, phantom)
			}},
			{"partial base, invalid class", big, func() (*Result, error) {
				return ExhaustivePartial(in, opts, []catalog.ObjectID{f.ids["small"]}, badClass)
			}},
			{"seed, unknown object", 999, func() (*Result, error) {
				return OptimizeIncremental(in, IncrementalOptions{Options: opts, Seed: catalog.SingletonSetLayout(phantom)})
			}},
			{"seed, empty set", big, func() (*Result, error) {
				return OptimizeIncremental(in, IncrementalOptions{Options: opts, Seed: badSet})
			}},
		} {
			res, err := tc.run()
			if err == nil {
				t.Fatalf("%s (NoCompile=%v): accepted, feasible=%v layout=%v", tc.name, noCompile, res.Feasible, res.Layout)
			}
			if want := fmt.Sprintf("object %d", tc.obj); !strings.Contains(err.Error(), want) {
				t.Fatalf("%s (NoCompile=%v): error %q does not name %s", tc.name, noCompile, err, want)
			}
		}
	}
}

func TestExhaustivePartialInfeasible(t *testing.T) {
	f := newFix(t)
	for _, c := range f.box.Classes() {
		f.box.SetCapacity(c, 1)
	}
	base := catalog.NewUniformLayout(f.cat, device.HSSD)
	res, err := ExhaustivePartial(f.input(), Options{RelativeSLA: 0.5},
		[]catalog.ObjectID{f.ids["big"]}, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("nothing fits; result must be infeasible")
	}
}

func TestOptimizeBestNotWorseThanEither(t *testing.T) {
	f := newFix(t)
	in := f.input()
	opts := Options{RelativeSLA: 0.25}
	guarded, err := Optimize(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	greedy := optimizeGreedy(t, in, opts)
	best, err := OptimizeBest(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible {
		t.Fatal("portfolio should be feasible when either policy is")
	}
	if best.TOCCents > guarded.TOCCents+1e-15 || best.TOCCents > greedy.TOCCents+1e-15 {
		t.Fatalf("portfolio TOC %g worse than guarded %g or greedy %g",
			best.TOCCents, guarded.TOCCents, greedy.TOCCents)
	}
	if best.Evaluated != guarded.Evaluated+greedy.Evaluated {
		t.Fatal("portfolio should report combined evaluation counts")
	}
}

// optimizeGreedy is Optimize under the greedy policy, the paper's literal
// Procedure 1.
func optimizeGreedy(t *testing.T, in Input, opts Options) *Result {
	t.Helper()
	eng, moves, err := in.setup(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizeWith(in, opts, eng, moves, nil, greedy)
	if err != nil {
		t.Fatal(err)
	}
	return res.finish()
}

func TestGreedyApplyStillTracksBestPrefix(t *testing.T) {
	// The literal Procedure 1 (the greedy policy) must never return an
	// infeasible layout as feasible and must satisfy its own constraints.
	f := newFix(t)
	res := optimizeGreedy(t, f.input(), Options{RelativeSLA: 0.5})
	if !res.Feasible {
		t.Fatal("greedy sweep should find a feasible layout at SLA 0.5")
	}
	if !res.Constraints.Satisfied(res.Metrics) {
		t.Fatal("reported metrics violate the constraints")
	}
	if err := res.Layout.CheckCapacity(f.cat, f.box); err != nil {
		t.Fatal(err)
	}
}

func TestGuardedNeverWorseThanGreedyOnSeparableCost(t *testing.T) {
	// With the linear (separable) cost model the guard should never lose to
	// the literal sweep.
	f := newFix(t)
	for _, sla := range []float64{0.9, 0.5, 0.25, 0.125} {
		guarded, err := Optimize(f.input(), Options{RelativeSLA: sla})
		if err != nil {
			t.Fatal(err)
		}
		greedy := optimizeGreedy(t, f.input(), Options{RelativeSLA: sla})
		if guarded.TOCCents > greedy.TOCCents+1e-15 {
			t.Errorf("SLA %g: guarded TOC %g worse than greedy %g", sla, guarded.TOCCents, greedy.TOCCents)
		}
	}
}

func TestCustomLayoutCostFlowsThroughTOC(t *testing.T) {
	f := newFix(t)
	in := f.input()
	// A cost model that charges a flat fee regardless of layout: every
	// candidate then has TOC proportional to elapsed time only, so the
	// fastest feasible layout (L0) must win.
	in.LayoutCost = func(catalog.ClassSpace) (float64, error) { return 42, nil }
	res, err := Optimize(in, Options{RelativeSLA: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("flat-cost optimization should be feasible")
	}
	for id, cls := range res.Layout {
		if cls != device.HSSD {
			t.Fatalf("object %d left the fastest class under flat cost", id)
		}
	}
	m, _ := in.Est.Estimate(res.Layout)
	want := 42 * m.Elapsed.Hours()
	if diff := res.TOCCents - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("TOC %g, want %g under the flat model", res.TOCCents, want)
	}
}

func TestOptimizeValidatedOLTPPathNoPerQueryStats(t *testing.T) {
	// When the runner yields no per-query observations (the OLTP path),
	// a failing validation returns the best-so-far result unrefined.
	f := newFix(t)
	runner := &oltpSkewRunner{f: f}
	res, val, err := OptimizeValidated(f.input(), Options{RelativeSLA: 0.5}, runner, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || val == nil {
		t.Fatal("missing result")
	}
	if val.Satisfied {
		t.Fatal("this runner always misses; validation should report failure")
	}
}

// oltpSkewRunner reports healthy throughput for L0 (so the baseline-derived
// floor is meaningful) and terrible throughput for anything else, with no
// per-query statistics — the shape of a failing OLTP validation.
type oltpSkewRunner struct {
	f *fix
}

func (r *oltpSkewRunner) Run(l catalog.Layout) (workload.Observation, error) {
	m, err := r.f.est.Estimate(l)
	if err != nil {
		return workload.Observation{}, err
	}
	m.PerQuery = nil
	m.Throughput = 0.1
	if l.Equal(catalog.NewUniformLayout(r.f.cat, device.HSSD)) {
		m.Throughput = 1
	}
	return workload.Observation{Metrics: m, Profile: r.f.prof.Clone()}, nil
}
