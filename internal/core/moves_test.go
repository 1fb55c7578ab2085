package core

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// TestEnumerateMovesOrderMatchesStableSort: the move list comes out exactly
// as sort.SliceStable with the three-key comparison orders the flattened
// per-group lists — through tied scores, tied savings (group order decides)
// and the -Inf scores of free wins.
func TestEnumerateMovesOrderMatchesStableSort(t *testing.T) {
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	prof := iosim.NewProfile()
	for i := 0; i < 7; i++ {
		tab, err := cat.CreateTable(string(rune('a'+i)), sch, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := cat.CreateIndex(string(rune('a'+i))+"_pkey", tab.ID, []string{"id"}, true)
		if err != nil {
			t.Fatal(err)
		}
		// Tables 0-3 are copies of one another: every move of one ties with
		// the same move of the others on score and on saving.
		k := int64(max(i-3, 0) + 1)
		cat.SetSize(tab.ID, k*4e9)
		cat.SetSize(ix.ID, k*4e8)
		prof.Add(tab.ID, device.SeqRead, float64(k)*1e5)
		prof.Add(ix.ID, device.RandRead, float64(k)*3e3)
	}
	ps := NewProfileSet()
	ps.SetSingle(prof)
	box := device.Box1()
	groups := cat.Groups()
	// From the priciest class every move saves money; from the middle class
	// the moves up are free wins, which all score -Inf.
	for _, l0 := range []device.Class{device.HSSD, device.LSSD} {
		for _, workers := range []int{1, 4} {
			moves, err := EnumerateMoves(cat, box, ps, l0, 1, workers)
			if err != nil {
				t.Fatal(err)
			}
			// Rebuild the flattened, unsorted list: group order, then pattern
			// enumeration order within a group.
			flatKey := func(m Move) int {
				gi := slices.IndexFunc(groups, func(g catalog.Group) bool { return g.Objects[0] == m.Group.Objects[0] })
				patterns := enumeratePatterns(box.Classes(), m.Group.Size())
				return gi*len(patterns) + slices.IndexFunc(patterns, m.Placement.equal)
			}
			want := slices.Clone(moves)
			sort.Slice(want, func(i, j int) bool { return flatKey(want[i]) < flatKey(want[j]) })
			sort.SliceStable(want, func(i, j int) bool {
				if want[i].Score != want[j].Score {
					return want[i].Score < want[j].Score
				}
				if want[i].DeltaCost != want[j].DeltaCost {
					return want[i].DeltaCost > want[j].DeltaCost
				}
				return want[i].Group.Objects[0] < want[j].Group.Objects[0]
			})
			tiedScores, tiedSavings, freeWins := 0, 0, 0
			for i, m := range moves {
				w := want[i]
				if m.Group.Objects[0] != w.Group.Objects[0] || !m.Placement.equal(w.Placement) ||
					math.Float64bits(m.Score) != math.Float64bits(w.Score) || m.DeltaCost != w.DeltaCost || m.DeltaTime != w.DeltaTime {
					t.Fatalf("l0=%v workers=%d: move %d is %v of group %d, the stable sort puts %v of group %d there",
						l0, workers, i, m.Placement, m.Group.Objects[0], w.Placement, w.Group.Objects[0])
				}
				if math.IsInf(m.Score, -1) {
					freeWins++
				}
				if i > 0 && m.Score == moves[i-1].Score {
					tiedScores++
					if m.DeltaCost == moves[i-1].DeltaCost {
						tiedSavings++
					}
				}
			}
			if tiedScores == 0 || tiedSavings == 0 || (l0 == device.LSSD && freeWins < 2) {
				t.Fatalf("l0=%v: fixture has %d tied scores, %d tied savings, %d free wins — nothing for stability to decide",
					l0, tiedScores, tiedSavings, freeWins)
			}
		}
	}
}

// TestMoveListsShareByEconomics: one MoveLists hands boxes that differ only
// in capacity the very same list, and every box that scores differently —
// classes reordered, a class repriced, another concurrency, a class fewer —
// a list of its own. Each list equals the one EnumerateMoves scores for its
// box alone, and eight searches asking at once all get the one slice. An
// input over another catalog is refused.
func TestMoveListsShareByEconomics(t *testing.T) {
	f := newFix(t)
	ps := NewProfileSet()
	ps.SetSingle(f.prof)
	box := func(units int, classes ...device.Class) *device.Box {
		b := &device.Box{Name: "moves"}
		for _, c := range classes {
			b.Devices = append(b.Devices, device.NewScaled(c, units))
		}
		return b
	}
	three := []device.Class{device.HDDRAID0, device.LSSD, device.HSSD}
	repriced := box(1, three...)
	repriced.Devices[1].PriceCents *= 2
	cases := []struct {
		name   string
		box    *device.Box
		conc   int
		shares string // the earlier case whose list this one must be
	}{
		{name: "one unit", box: box(1, three...), conc: 1},
		{name: "two units", box: box(2, three...), conc: 1, shares: "one unit"},
		{name: "reordered", box: box(1, device.LSSD, device.HDDRAID0, device.HSSD), conc: 1},
		{name: "repriced", box: repriced, conc: 1},
		{name: "concurrency 300", box: box(1, three...), conc: 300},
		{name: "two classes", box: box(3, three[1:]...), conc: 1},
	}
	var ml MoveLists
	seen := make(map[string][]Move)
	for _, c := range cases {
		in := Input{Cat: f.cat, Box: c.box, Profiles: ps, Concurrency: c.conc}
		lists := make([][]Move, 8)
		errs := make([]error, len(lists))
		var wg sync.WaitGroup
		for i := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lists[i], errs[i] = ml.get(in, 2)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: search %d: %v", c.name, i, err)
			}
			if &lists[i][0] != &lists[0][0] {
				t.Fatalf("%s: search %d got a list of its own", c.name, i)
			}
		}
		want, err := EnumerateMoves(f.cat, c.box, ps, c.box.MostExpensive().Class, c.conc, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lists[0], want) {
			t.Fatalf("%s: the shared list differs from the box's own", c.name)
		}
		for name, prev := range seen {
			if shared := &prev[0] == &lists[0][0]; shared != (name == c.shares) {
				t.Fatalf("%s shares the list of %s: %v, want %v", c.name, name, shared, !shared)
			}
		}
		seen[c.name] = lists[0]
	}
	other := newFix(t)
	if _, err := ml.get(Input{Cat: other.cat, Box: box(1, three...), Profiles: ps, Concurrency: 1}, 1); err == nil {
		t.Fatal("a MoveLists answered for a second catalog")
	}
}

// TestSharedMoveListsStayWithTheirInputs: an input carrying a MoveLists
// searches exactly like one without it through the two paths that change
// what a move list is scored over — OptimizeValidated's refinement rounds
// (new profiles) and Partitioned (a unit catalog) — instead of being
// refused for naming a second profile set or catalog.
func TestSharedMoveListsStayWithTheirInputs(t *testing.T) {
	same := func(name string, got, want *Result) {
		t.Helper()
		if !got.Layout.Equal(want.Layout) || got.TOCCents != want.TOCCents || got.Evaluated != want.Evaluated {
			t.Fatalf("%s: shared move lists changed the search: toc %v/%v evaluated %d/%d",
				name, got.TOCCents, want.TOCCents, got.Evaluated, want.Evaluated)
		}
	}

	f := newFix(t)
	runner := &offBaselineRunner{l0: f.input().Box.MostExpensive().Class,
		base: &skewRunner{f: f, skew: 1}, off: &skewRunner{f: f, skew: 3}}
	want, _, err := OptimizeValidated(f.input(), Options{RelativeSLA: 0.5}, runner, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := f.input()
	in.Moves = &MoveLists{}
	got, _, err := OptimizeValidated(in, Options{RelativeSLA: 0.5}, runner, 3)
	if err != nil {
		t.Fatal(err)
	}
	same("validated", got, want)

	pin, fx := skewInput(t, device.Box2())
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pwant, err := optimizePartitioned(pin, pt, Options{RelativeSLA: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	pin.Moves = &MoveLists{}
	if _, err := Optimize(pin, Options{RelativeSLA: 0.2}); err != nil {
		t.Fatal(err) // binds the lists to the object catalog
	}
	pgot, err := optimizePartitioned(pin, pt, Options{RelativeSLA: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	same("partitioned", pgot, pwant)
}

// offBaselineRunner measures the baseline L0 exactly and every other layout
// through off, so a validation fails and the refinement rounds run.
type offBaselineRunner struct {
	l0        device.Class
	base, off Runner
}

func (r *offBaselineRunner) Run(l catalog.Layout) (workload.Observation, error) {
	for _, c := range l {
		if c != r.l0 {
			return r.off.Run(l)
		}
	}
	return r.base.Run(l)
}
