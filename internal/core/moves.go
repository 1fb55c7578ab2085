package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
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
	svc := box.ServiceTimes(concurrency)
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
			t0 += prof0.ObjectIOTime(obj, svc[l0])
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
				tp += profP.ObjectIOTime(obj, svc[p[i]])
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
	// Close the gaps dropped moves left (no window starts before the moves
	// kept ahead of it), sort indices, and permute the backing array in
	// place: the sort swaps 4-byte indices instead of ~72-byte moves, and
	// the list is the array it was scored into, not a sorted copy of it.
	moves := all[:0]
	for _, ms := range perGroup {
		moves = append(moves, ms...)
	}
	order := make([]int32, len(moves))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		switch {
		case moveBefore(&moves[a], &moves[b]):
			return -1
		case moveBefore(&moves[b], &moves[a]):
			return 1
		}
		return 0
	})
	// Position j takes the move at order[j]; walk each cycle once.
	for i := range moves {
		if order[i] < 0 {
			continue
		}
		first, j := moves[i], i
		for k := int(order[j]); k != i; k = int(order[j]) {
			moves[j], order[j] = moves[k], -1
			j = k
		}
		moves[j], order[j] = first, -1
	}
	return moves, nil
}

// MoveLists shares scored move lists between the searches of one catalog
// and profile set — the candidates of a provisioning sweep. A move's score
// reads each device's class, price and service times and nothing else, so
// boxes that list the same classes in the same order with the same
// economics score the same list, whatever their capacities: a sweep over a
// unit-count grid scores one list per class list instead of one per
// candidate box. Each list is scored once, by the first search that needs
// it, and then only read. The zero value is ready to use and safe for
// concurrent searches; a nil *MoveLists scores a private list per search.
type MoveLists struct {
	mu    sync.Mutex
	cat   *catalog.Catalog
	ps    *ProfileSet
	lists map[string]*moveList
}

// moveList is one shared list, scored under once.
type moveList struct {
	once  sync.Once
	moves []Move
	err   error
}

// get returns the input's scored move list: its box's shared list when ml
// is non-nil, a freshly scored one otherwise. A MoveLists serves one
// catalog and one profile set; an input naming others is refused.
func (ml *MoveLists) get(in Input, workers int) ([]Move, error) {
	score := func() ([]Move, error) {
		return EnumerateMoves(in.Cat, in.Box, in.Profiles, in.Box.MostExpensive().Class, in.conc(), workers)
	}
	if ml == nil {
		return score()
	}
	key := moveKey(in.Box, in.conc())
	ml.mu.Lock()
	if ml.lists == nil {
		ml.cat, ml.ps, ml.lists = in.Cat, in.Profiles, make(map[string]*moveList)
	}
	if ml.cat != in.Cat || ml.ps != in.Profiles {
		ml.mu.Unlock()
		return nil, fmt.Errorf("core: shared move lists serve one catalog and profile set")
	}
	l := ml.lists[key]
	if l == nil {
		l = &moveList{}
		ml.lists[key] = l
	}
	ml.mu.Unlock()
	l.once.Do(func() { l.moves, l.err = score() })
	return l.moves, l.err
}

// moveKey is all a box contributes to its move list: per device, in box
// order (the order patterns are enumerated and ties broken in), the class,
// the price and every I/O type's service time at the concurrency. The
// starting class L0 is the priciest device, so the key fixes it too.
func moveKey(box *device.Box, concurrency int) string {
	svc := box.ServiceTimes(concurrency)
	b := make([]byte, 0, len(box.Devices)*(1+8*(1+device.NumIOTypes)))
	for _, d := range box.Devices {
		b = append(b, byte(d.Class))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.PriceCents))
		for _, t := range device.AllIOTypes {
			b = binary.LittleEndian.AppendUint64(b, uint64(svc[d.Class][t]))
		}
	}
	return string(b)
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
