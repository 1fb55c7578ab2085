package core

import (
	"math"
	"slices"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/search"
)

// Move is one candidate relocation m(g, p): place group g's objects with
// pattern p (§3.2). DeltaTime and DeltaCost are the components of the
// priority score (Eq. 2-3), Score their ratio (Eq. 4).
type Move struct {
	Group     catalog.Group
	Placement Pattern
	DeltaTime time.Duration // performance penalty vs L0 (Eq. 2)
	DeltaCost float64       // layout cost saving in cent/hour (Eq. 3)
	Score     float64       // DeltaTime / DeltaCost (Eq. 4), lower is better
}

// EnumerateMoves is Procedure 2: for every object group, consider every
// placement combination over the box's classes, score it against the
// starting layout L0 (all objects on class l0), and return the moves sorted
// by ascending priority score (most beneficial first).
//
// Moves that save nothing (DeltaCost <= 0) and don't improve performance
// are dropped; free wins (faster and not more expensive) sort first.
// Groups score independently, so scoring fans out across up to `workers`
// goroutines; the flattened, stably-sorted move list is identical at any
// width.
func EnumerateMoves(cat *catalog.Catalog, box *device.Box, ps *ProfileSet, l0 device.Class, concurrency, workers int) ([]Move, error) {
	l0Dev := box.Device(l0)
	groups := cat.Groups()
	// Patterns depend only on the group size; enumerate each size once up
	// front instead of per group (k is typically uniform across groups, so
	// this also keeps pattern slices off the scoring loop's profile).
	classes := box.Classes()
	patternsByK := make(map[int][]Pattern)
	for _, g := range groups {
		if _, ok := patternsByK[g.Size()]; !ok {
			patternsByK[g.Size()] = enumeratePatterns(classes, g.Size())
		}
	}
	// A group keeps at most one move per pattern but the identity, so one
	// backing array holds every group's moves: each group appends into a
	// disjoint window of it, capped so that it cannot spill into the next.
	perGroup := make([][]Move, len(groups))
	room := func(g catalog.Group) int { return max(len(patternsByK[g.Size()])-1, 0) }
	total := 0
	for _, g := range groups {
		total += room(g)
	}
	all := make([]Move, total)
	off := 0
	for gi, g := range groups {
		n := room(g)
		perGroup[gi] = all[off : off : off+n]
		off += n
	}
	if err := search.Parallel(workers, len(groups), func(gi int) error {
		g := groups[gi]
		k := g.Size()
		p0 := Uniform(l0, k)
		prof0, err := ps.For(p0)
		if err != nil {
			return err
		}
		// T0[g]: the group's I/O time share under L0 (Eq. 1).
		var t0 time.Duration
		for _, obj := range g.Objects {
			t0 += prof0.ObjectIOTime(obj, l0Dev, concurrency)
		}
		for _, p := range patternsByK[k] {
			if p.equal(p0) {
				continue // identity move
			}
			profP, err := ps.For(p)
			if err != nil {
				return err
			}
			var tp time.Duration
			var saving float64
			for i, obj := range g.Objects {
				dev := box.Device(p[i])
				tp += profP.ObjectIOTime(obj, dev, concurrency)
				sizeGB := float64(cat.Object(obj).SizeBytes) / 1e9
				saving += (l0Dev.PriceCents - dev.PriceCents) * sizeGB
			}
			m := Move{
				Group:     g,
				Placement: p,
				DeltaTime: tp - t0,
				DeltaCost: saving,
			}
			switch {
			case m.DeltaCost > 0:
				m.Score = float64(m.DeltaTime) / m.DeltaCost
			case m.DeltaTime < 0:
				m.Score = math.Inf(-1) // faster and not cheaper to skip: free win
			default:
				continue // dominated: no saving, no speedup
			}
			perGroup[gi] = append(perGroup[gi], m)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Order references into perGroup, then gather once: the sort swaps
	// pointers instead of ~100-byte moves and the list is allocated at its
	// final size.
	kept := 0
	for _, ms := range perGroup {
		kept += len(ms)
	}
	refs := make([]*Move, 0, kept)
	for gi := range perGroup {
		for mi := range perGroup[gi] {
			refs = append(refs, &perGroup[gi][mi])
		}
	}
	slices.SortStableFunc(refs, func(a, b *Move) int {
		switch {
		case moveBefore(a, b):
			return -1
		case moveBefore(b, a):
			return 1
		}
		return 0
	})
	moves := make([]Move, len(refs))
	for i, m := range refs {
		moves[i] = *m
	}
	return moves, nil
}

// moveBefore orders the move list: ascending score, then — a deterministic
// tie-break — larger saving first, then group order.
func moveBefore(a, b *Move) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.DeltaCost != b.DeltaCost {
		return a.DeltaCost > b.DeltaCost
	}
	return a.Group.Objects[0] < b.Group.Objects[0]
}
