package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/types"
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
