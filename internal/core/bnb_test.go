package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// randExhaustiveFixture builds a random catalog + profile with deliberate
// symmetry: objects drawn from a small pool of (size, per-type I/O count)
// templates, so duplicated templates produce dominance-collapsible units.
type randExhaustiveFixture struct {
	in   Input
	dups bool
}

func newRandExhaustiveFixture(t *testing.T, rng *rand.Rand, oltp bool) *randExhaustiveFixture {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	type tmpl struct {
		sizeGB float64
		counts [4]float64
	}
	pool := make([]tmpl, 1+rng.Intn(4))
	for i := range pool {
		pool[i] = tmpl{sizeGB: 0.5 + 4*rng.Float64()}
		for k := range pool[i].counts {
			if rng.Intn(2) == 0 {
				pool[i].counts[k] = float64(rng.Intn(1_000_000))
			}
		}
	}
	n := 2 + rng.Intn(5)
	prof := iosim.NewProfile()
	seen := map[int]bool{}
	dups := false
	for i := 0; i < n; i++ {
		tb, err := cat.CreateTable("t"+string(rune('a'+i)), sch, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		pi := rng.Intn(len(pool))
		if seen[pi] {
			dups = true
		}
		seen[pi] = true
		tm := pool[pi]
		cat.SetSize(tb.ID, int64(tm.sizeGB*1e9))
		for k, c := range tm.counts {
			if c > 0 {
				prof.Add(tb.ID, device.AllIOTypes[k], c)
			}
		}
	}
	box := device.Box1()
	if rng.Intn(2) == 0 {
		box = device.Box2()
	}
	f := &randExhaustiveFixture{dups: dups}
	ps := NewProfileSet()
	ps.SetSingle(prof)
	if oltp {
		est, err := workload.NewProfileEstimator(box, 2, prof, time.Second,
			workload.RunStats{Txns: 5000, Elapsed: time.Minute},
			catalog.NewUniformLayout(cat, device.HSSD))
		if err != nil {
			t.Fatal(err)
		}
		f.in = Input{Cat: cat, Box: box, Est: est, Profiles: ps, Concurrency: 2}
	} else {
		f.in = Input{Cat: cat, Box: box, Est: &workload.ObservedEstimator{
			Box: box, Concurrency: 1,
			PerQuery: []workload.QueryObservation{
				{Profile: prof, CPU: time.Duration(rng.Intn(int(time.Second)))},
			},
		}, Profiles: ps, Concurrency: 1}
	}
	return f
}

// odometer is the exhaustive reference that runs through no
// branch-and-bound code: every layout of the space in odometer order
// (free[0] cycles fastest) over base, each evaluated in turn through
// Engine.Evaluate on the estimator's map form, a feasible candidate winning
// only at a strictly lower TOC — ties to the lowest index — and, when
// nothing is feasible, the exhaustive entry points' fallback (L0, or the
// pinned base).
func odometer(t *testing.T, in Input, opts Options, copyCap int, free []catalog.ObjectID, base catalog.SetLayout) *Result {
	t.Helper()
	in.NoCompile, in.Workers = true, 1
	eng, err := in.engine(copyCap)
	if err != nil {
		t.Fatal(err)
	}
	_, ev0, cons, err := in.prep(opts, eng)
	if err != nil {
		t.Fatal(err)
	}
	digits := in.alphabet(copyCap)
	l := catalog.SetLayout{}
	if base != nil {
		l = base.Clone()
	}
	res := &Result{Constraints: cons}
	pos := make([]int, len(free))
	for done := false; !done; {
		for i, id := range free {
			l[id] = digits[pos[i]]
		}
		ev, err := eng.Evaluate(l)
		if err != nil {
			t.Fatal(err)
		}
		res.consider(ev, cons)
		done = true
		for i := range pos {
			if pos[i]++; pos[i] < len(digits) {
				done = false
				break
			}
			pos[i] = 0
		}
	}
	if !res.Feasible {
		fallback := ev0
		if base != nil {
			if fallback, err = eng.Evaluate(base); err != nil {
				t.Fatal(err)
			}
		}
		res.fallBack(fallback)
	}
	return res.finish()
}

// TestBnBPropertyMatchesPlain is the branch-and-bound engine's property
// test: across random catalogs (with engineered symmetric units), random
// device boxes, both objectives and several SLAs, the BnB walk —
// sequential and parallel — must return the bit-identical result of the
// plain unpruned enumeration under NoCompile, over the same reported
// space, and both must return the odometer's. The last twelve trials pin a
// random base layout (not L0) and free a random subset of the objects, so
// the partial entry point is held to the same contract. Run it under -race
// to exercise the parallel walkers.
func TestBnBPropertyMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(1971))
	slas := []float64{0.2, 0.5, 1.0}
	sawGroups := false
	for trial := 0; trial < 36; trial++ {
		oltp := trial%3 == 2
		f := newRandExhaustiveFixture(t, rng, oltp)
		opts := Options{RelativeSLA: slas[rng.Intn(len(slas))]}

		classes := f.in.Box.Classes()
		free := f.in.allObjects()
		var base catalog.Layout
		if trial >= 24 {
			base = make(catalog.Layout)
			for _, id := range free {
				base[id] = classes[rng.Intn(len(classes))]
			}
			rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
			free = free[:1+rng.Intn(len(free))]
		}
		run := func(in Input) (*Result, error) {
			if base == nil {
				return Exhaustive(in, opts)
			}
			return ExhaustivePartial(in, opts, free, base)
		}

		plainIn := f.in
		plainIn.NoCompile = true
		plain, err := run(plainIn)
		if err != nil {
			t.Fatalf("trial %d: plain: %v", trial, err)
		}
		space := math.Pow(float64(len(classes)), float64(len(free)))
		if plain.Search.SpaceSize != space || plain.Evaluated != int(space) {
			t.Fatalf("trial %d: plain walked %d of a reported %g, want %g", trial, plain.Evaluated, plain.Search.SpaceSize, space)
		}
		var baseSet catalog.SetLayout
		if base != nil {
			baseSet = catalog.SingletonSetLayout(base)
		}
		requireSameOutcome(t, fmt.Sprintf("trial %d plain-vs-odometer", trial), plain, odometer(t, f.in, opts, 1, free, baseSet))

		for _, v := range []struct {
			name    string
			workers int
		}{{"bnb", 1}, {"bnb-par", 8}} {
			in := f.in
			in.Workers = v.workers
			res, err := run(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, v.name, err)
			}
			if res.Feasible != plain.Feasible || !res.Layout.Equal(plain.Layout) ||
				math.Float64bits(res.TOCCents) != math.Float64bits(plain.TOCCents) ||
				res.Metrics.Elapsed != plain.Metrics.Elapsed {
				t.Fatalf("trial %d %s: result diverges from plain: feasible %v/%v toc %v/%v\n%v\nvs\n%v",
					trial, v.name, res.Feasible, plain.Feasible, res.TOCCents, plain.TOCCents,
					res.Layout, plain.Layout)
			}
			if res.Evaluated > plain.Evaluated {
				t.Fatalf("trial %d %s: evaluated %d > plain %d", trial, v.name, res.Evaluated, plain.Evaluated)
			}
			if res.Search.SpaceSize != plain.Search.SpaceSize {
				t.Fatalf("trial %d %s: space size %g, plain reports %g", trial, v.name, res.Search.SpaceSize, plain.Search.SpaceSize)
			}
			if base == nil && f.dups && res.Search.Groups > 0 {
				sawGroups = true
				if res.Search.CanonicalSize >= res.Search.SpaceSize {
					t.Fatalf("trial %d: dominance found groups but no collapse: %g >= %g",
						trial, res.Search.CanonicalSize, res.Search.SpaceSize)
				}
			}
		}
	}
	if !sawGroups {
		t.Fatal("no trial exercised dominance groups — fixture symmetry is broken")
	}
}

// TestBnBCollapseAdmitsLargeSymmetricSpace: a space whose raw M^N exceeds
// MaxExhaustiveLayouts is admitted when dominance collapses its canonical
// form back under the cap — and still refused when there is no symmetry to
// collapse, or under NoCompile, whose map form offers no signatures.
func TestBnBCollapseAdmitsLargeSymmetricSpace(t *testing.T) {
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	// 16 objects, 14 of them identical unless distinct: 3^16 ≈ 43M raw
	// layouts, but the canonical space is C(14+2,14) * 3^2 = 1080.
	fixture := func(distinct bool) Input {
		cat := catalog.New()
		prof := iosim.NewProfile()
		for i := 0; i < 16; i++ {
			tb, err := cat.CreateTable("t"+string(rune('a'+i)), sch, []string{"id"})
			if err != nil {
				t.Fatal(err)
			}
			if i < 14 && !distinct {
				cat.SetSize(tb.ID, 1e9)
				prof.Add(tb.ID, device.RandRead, 50000)
			} else {
				cat.SetSize(tb.ID, int64(float64(i+1)*1e9))
				prof.Add(tb.ID, device.SeqRead, float64(i+1)*1e6)
			}
		}
		box := device.Box1()
		ps := NewProfileSet()
		ps.SetSingle(prof)
		return Input{Cat: cat, Box: box, Est: &workload.ObservedEstimator{
			Box: box, Concurrency: 1,
			PerQuery: []workload.QueryObservation{{Profile: prof, CPU: time.Second}},
		}, Profiles: ps, Concurrency: 1, Workers: 8}
	}

	in := fixture(false)
	res, err := Exhaustive(in, Options{RelativeSLA: 0.5})
	if err != nil {
		t.Fatalf("collapse-admissible space refused: %v", err)
	}
	if res.Search.SpaceSize <= MaxExhaustiveLayouts {
		t.Fatalf("fixture too small to test admission: %g", res.Search.SpaceSize)
	}
	if res.Search.CanonicalSize > MaxExhaustiveLayouts {
		t.Fatalf("canonical size %g should be under the cap", res.Search.CanonicalSize)
	}
	if res.Search.Groups == 0 || res.Search.GroupedUnits < 14 {
		t.Fatalf("expected one 14-unit group, got %d groups / %d units",
			res.Search.Groups, res.Search.GroupedUnits)
	}
	if res.Search.Candidates > 1080 {
		t.Fatalf("evaluated %d candidates, canonical space is 1080", res.Search.Candidates)
	}

	in.NoCompile = true
	if _, err := Exhaustive(in, Options{RelativeSLA: 0.5}); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("the map form must refuse the raw space, got %v", err)
	}
	if _, err := Exhaustive(fixture(true), Options{RelativeSLA: 0.5}); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("without symmetry the raw space must be refused, got %v", err)
	}
}
