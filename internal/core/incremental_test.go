package core

import (
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/search"
	"dotprov/internal/workload"
)

func TestOptimizeIncrementalStableAtOptimum(t *testing.T) {
	f := newFix(t)
	opts := Options{RelativeSLA: 0.5}
	cold, err := OptimizeBest(f.input(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Feasible {
		t.Fatal("cold search infeasible")
	}
	inc, err := OptimizeIncremental(f.input(), IncrementalOptions{Options: opts, Seed: cold.Layout})
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Feasible {
		t.Fatal("incremental search infeasible from the cold optimum")
	}
	if !inc.Layout.Equal(cold.Layout) {
		t.Fatalf("incremental moved away from the optimum:\ncold %v\ninc  %v", cold.Layout, inc.Layout)
	}
	if inc.TOCCents > cold.TOCCents {
		t.Fatalf("incremental TOC %g worse than cold %g", inc.TOCCents, cold.TOCCents)
	}
	if inc.Evaluated >= cold.Evaluated {
		t.Fatalf("incremental evaluated %d, want fewer than cold's %d", inc.Evaluated, cold.Evaluated)
	}
}

func TestOptimizeIncrementalImprovesDriftedSeed(t *testing.T) {
	f := newFix(t)
	opts := Options{RelativeSLA: 0.5}
	// Seed with the all-H-SSD layout: feasible but expensive; the
	// incremental sweep must find the same economics a cold search does on
	// this instance while evaluating fewer candidates.
	seed := catalog.NewUniformLayout(f.cat, device.HSSD)
	cold, err := OptimizeBest(f.input(), opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := OptimizeIncremental(f.input(), IncrementalOptions{Options: opts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Feasible {
		t.Fatal("incremental infeasible")
	}
	if inc.TOCCents > cold.TOCCents*1.0001 {
		t.Fatalf("incremental TOC %g much worse than cold %g", inc.TOCCents, cold.TOCCents)
	}
	if inc.Evaluated >= cold.Evaluated {
		t.Fatalf("incremental evaluated %d, want fewer than cold's %d", inc.Evaluated, cold.Evaluated)
	}
}

func TestOptimizeIncrementalGateBlocksMoves(t *testing.T) {
	f := newFix(t)
	opts := Options{RelativeSLA: 0.5}
	cold, err := OptimizeBest(f.input(), opts)
	if err != nil {
		t.Fatal(err)
	}
	seed := catalog.NewUniformLayout(f.cat, device.HSSD)
	inc, err := OptimizeIncremental(f.input(), IncrementalOptions{
		Options: opts,
		Seed:    seed,
		Accept:  func(search.Eval, workload.Constraints) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Feasible {
		t.Fatal("seed itself is feasible; a blocking gate must not make the run infeasible")
	}
	if !inc.Layout.Equal(seed) {
		t.Fatalf("gate blocked every move but layout changed: %v", inc.Layout)
	}
	if inc.TOCCents <= cold.TOCCents {
		t.Fatalf("blocked run should pay the seed's TOC (%g), got %g <= cold %g",
			inc.TOCCents, inc.TOCCents, cold.TOCCents)
	}
}

func TestOptimizeIncrementalCompiledMatchesMap(t *testing.T) {
	f := newFix(t)
	// ObservedEstimator compiles, so the incremental sweep runs its delta
	// form; NoCompile hands the sweep the map form. The two must agree bit
	// for bit.
	mkInput := func(noCompile bool) Input {
		in := f.input()
		in.Est = &workload.ObservedEstimator{
			Box:         f.box,
			Concurrency: 1,
			PerQuery:    []workload.QueryObservation{{Profile: f.prof}},
		}
		in.NoCompile = noCompile
		return in
	}
	seed := catalog.NewUniformLayout(f.cat, device.HSSD)
	opts := IncrementalOptions{Options: Options{RelativeSLA: 0.5}, Seed: seed}
	compiled, err := OptimizeIncremental(mkInput(false), opts)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OptimizeIncremental(mkInput(true), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !compiled.Layout.Equal(mapped.Layout) {
		t.Fatalf("layouts diverge:\ncompiled %v\nmap      %v", compiled.Layout, mapped.Layout)
	}
	if compiled.TOCCents != mapped.TOCCents {
		t.Fatalf("TOC diverges: compiled %v map %v", compiled.TOCCents, mapped.TOCCents)
	}
	if compiled.Evaluated != mapped.Evaluated {
		t.Fatalf("evaluated diverges: compiled %d map %d", compiled.Evaluated, mapped.Evaluated)
	}
}
