package search

import (
	"math/rand"
	"testing"
	"unsafe"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// TestCursorRunningStateMatchesFullWalk: through any sequence of Try,
// Commit and Revert — single and grouped moves, multi-copy sets, a unit the
// running layout does not place — the cursor's running hash and per-class
// totals are the full hash and the full walk of its scratch bytes, and every
// candidate evaluates to what a fresh engine makes of the same layout.
func TestCursorRunningStateMatchesFullWalk(t *testing.T) {
	f := newCompactFix(t, 6)
	// A table the workload never touches may go unplaced.
	idle, err := f.cat.CreateTable("idle", types.NewSchema(types.Column{Name: "id", Kind: types.KindInt}), nil)
	if err != nil {
		t.Fatal(err)
	}
	f.cat.SetSize(idle.ID, 3e9)
	f.sizes = f.cat.DenseSizeBytes()
	alphabet := device.EnumerateClassSets(f.box.Classes(), 2)
	f.est = workload.CompileEstimator(f.src, f.cat, alphabet...)
	eng, err := New(f.config(1, false))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(f.config(1, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	start := catalog.CompactUniform(f.cat, device.Singleton(device.HSSD))
	start.Unset(idle.ID) // partial: its first move starts from an unset slot
	ev0, err := eng.EvaluateCompact(start)
	if err != nil {
		t.Fatal(err)
	}
	cur := eng.NewCursor(ev0)
	check := func(what string, hash uint64, space catalog.ClassSpace) {
		t.Helper()
		b := cur.scratch.Bytes()
		if want := layoutHash(b); hash != want {
			t.Fatalf("%s: running hash %#x, full hash %#x of %v", what, hash, want, b)
		}
		if want := cur.scratch.Space(f.sizes); space != want {
			t.Fatalf("%s: running totals %+v, full walk %+v of %v", what, space, want, b)
		}
	}
	check("new cursor", cur.hash, cur.space)
	objs := f.cat.Objects()
	for step := 0; step < 400; step++ {
		var changes []workload.ObjectMove
		for _, i := range rng.Perm(len(objs))[:1+rng.Intn(3)] {
			from, _ := cur.At(objs[i].ID)
			if to := alphabet[rng.Intn(len(alphabet))]; to != from {
				changes = append(changes, workload.ObjectMove{Obj: objs[i].ID, From: from, To: to})
			}
		}
		ev, err := cur.Try(changes)
		if err != nil {
			t.Fatal(err)
		}
		check("after Try", cur.candHash, cur.candSpace)
		full, err := ref.EvaluateCompact(cur.scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !evalEqual(ev, full) {
			t.Fatalf("step %d: cursor candidate %+v, full evaluation %+v", step, ev, full)
		}
		if rng.Intn(2) == 0 {
			cur.Commit(ev)
			check("after Commit", cur.hash, cur.space)
		} else {
			cur.Revert(changes)
			check("after Revert", cur.hash, cur.space)
		}
	}
}

// collisionRun drives one engine through a DOT-style sweep (walk to every
// improving candidate, revert the rest, revisit the same moves in a second
// pass) and a plain and a bounded branch-and-bound enumeration, and returns
// everything observable: each evaluation in order and the counters.
func collisionRun(t *testing.T, f *compactFix, eng *Engine) ([]Eval, Stats) {
	t.Helper()
	var evs []Eval
	hssd := device.Singleton(device.HSSD)
	ev0, err := eng.EvaluateCompact(catalog.CompactUniform(f.cat, hssd))
	if err != nil {
		t.Fatal(err)
	}
	cur := eng.NewCursor(ev0)
	for pass := 0; pass < 2; pass++ {
		for _, o := range f.cat.Objects() {
			for _, to := range f.digits() {
				from, _ := cur.At(o.ID)
				if from == to {
					continue
				}
				move := []workload.ObjectMove{{Obj: o.ID, From: from, To: to}}
				ev, err := cur.Try(move)
				if err != nil {
					t.Fatal(err)
				}
				evs = append(evs, ev)
				if ev.CapacityOK && ev.TOCCents < cur.Eval().TOCCents {
					cur.Commit(ev)
				} else {
					cur.Revert(move)
				}
			}
		}
	}
	cons := workload.Constraints{Relative: 0.25, Baseline: ev0.Metrics}
	free := []catalog.ObjectID{1, 2, 3, 4, 5}
	for _, bounded := range []bool{false, true} {
		ev, ok, st, err := eng.ExhaustiveBnB(cons, f.bnbSpace(t, catalog.NewCompactLayout(f.cat.NumObjects()), free, bounded))
		if err != nil || !ok {
			t.Fatalf("bounded=%v: enumeration found nothing (%v)", bounded, err)
		}
		evs = append(evs, ev)
		if bounded && st.BoundPruned == 0 {
			t.Fatal("the bounded walk cut nothing")
		}
	}
	return evs, eng.Stats()
}

// TestMemoSurvivesTotalHashCollision: with every layout forced onto one
// hash chain the memo still tells layouts apart — a DOT-style sweep and both
// branch-and-bound walks return the same evaluations after the same number
// of evaluations and estimator calls. The memo's answers rest on the byte
// comparison; the hash only decides how long the chain is.
func TestMemoSurvivesTotalHashCollision(t *testing.T) {
	f := newCompactFix(t, 5)
	for _, workers := range []int{1, 4} {
		eng, err := New(f.config(workers, false))
		if err != nil {
			t.Fatal(err)
		}
		colliding, err := New(f.config(workers, false))
		if err != nil {
			t.Fatal(err)
		}
		colliding.hashMask = 0
		want, wantStats := collisionRun(t, f, eng)
		got, gotStats := collisionRun(t, f, colliding)
		if len(colliding.st.memo) != 1 {
			t.Fatalf("workers=%d: colliding engine spread over %d chains", workers, len(colliding.st.memo))
		}
		if wantStats.MemoHits() == 0 {
			t.Fatalf("workers=%d: the run never revisited a layout: %+v", workers, wantStats)
		}
		// A parallel bounded walk prunes by whatever incumbent it has seen, so
		// its candidate count is not reproducible; its result is.
		if workers == 1 && gotStats != wantStats {
			t.Fatalf("workers=%d: stats %+v with colliding hashes, %+v without", workers, gotStats, wantStats)
		}
		for i := range want {
			if !evalEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: evaluation %d is %+v with colliding hashes, %+v without", workers, i, got[i], want[i])
			}
		}
	}
}

// TestEvalAndEntrySizes: the cursor keeps the running hash and totals, so
// neither Eval nor the memo entry — one per distinct candidate — grew to
// carry them (104 and 168 bytes before the cursor existed). Entries are
// carved from recycled store chunks, so a larger entry no longer costs
// every request fresh chunks, but it widens every chunk the pool keeps
// and every entry Release zeroes.
func TestEvalAndEntrySizes(t *testing.T) {
	if got := unsafe.Sizeof(Eval{}); got > 104 {
		t.Fatalf("Eval is %d bytes, want at most 104", got)
	}
	if got := unsafe.Sizeof(entry{}); got > 168 {
		t.Fatalf("memo entry is %d bytes, want at most 168", got)
	}
}
