package search

import (
	"errors"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// TestReleasedEngineRefuses: once an engine is released its store is
// another engine's, so every evaluation entry point — Evaluate,
// EvaluateCompact, a cursor's Try, ExhaustiveBnB over free units and over
// none — answers an error instead of touching it. The store goes back
// emptied (no entry keeps estimator state or an error reachable), and a
// second Release is a no-op: it must not hand the store to two engines.
func TestReleasedEngineRefuses(t *testing.T) {
	f := newCompactFix(t, 5)
	eng, err := New(f.config(1, false))
	if err != nil {
		t.Fatal(err)
	}
	hssd := device.Singleton(device.HSSD)
	uniform := catalog.NewUniformSetLayout(f.cat, hssd)
	ev0, err := evalMap(eng, uniform)
	if err != nil {
		t.Fatal(err)
	}
	cur := eng.NewCursor(ev0)
	move := []workload.ObjectMove{{Obj: 1, From: hssd, To: device.Singleton(device.LSSD)}}
	if _, err := cur.Try(move); err != nil {
		t.Fatal(err)
	}
	cur.Revert(move)
	st := eng.st
	if st.used != 2 {
		t.Fatalf("the store holds %d entries before Release, want 2", st.used)
	}

	eng.Release()
	if st.used != 0 || len(st.memo) != 0 {
		t.Fatalf("released store kept %d entries, %d chains", st.used, len(st.memo))
	}
	for i := range st.ents[0][:2] {
		ent := &st.ents[0][i]
		if !ent.cl.IsZero() || ent.next != nil || ent.err != nil || ent.done.Load() || ent.ev.Metrics.PerQuery != nil {
			t.Fatalf("released store's entry %d is not zeroed", i)
		}
	}
	before := eng.Stats()
	cons := workload.Constraints{Relative: 0.25, Baseline: ev0.Metrics}
	cl, _ := catalog.CompactFromSetLayout(f.cat, uniform)
	for name, call := range map[string]func() error{
		"EvaluateCompact": func() error { _, err := eng.EvaluateCompact(cl); return err },
		"Cursor.Try":      func() error { _, err := cur.Try(move); return err },
		"ExhaustiveBnB": func() error {
			_, _, _, err := eng.ExhaustiveBnB(cons, f.bnbSpace(t, catalog.NewCompactLayout(f.cat.NumObjects()), []catalog.ObjectID{1, 2, 3}, true))
			return err
		},
		"ExhaustiveBnB, nothing free": func() error {
			_, _, _, err := eng.ExhaustiveBnB(cons, BnBSpace{Base: cl, Digits: f.digits()})
			return err
		},
	} {
		if err := call(); !errors.Is(err, errReleased) {
			t.Errorf("%s after Release: %v, want %v", name, err, errReleased)
		}
	}
	if got := eng.Stats(); got != before {
		t.Errorf("refused evaluations were counted: %+v, then %+v", before, got)
	}

	eng.Release()
	a, err := New(f.config(1, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(f.config(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if a.st == b.st {
		t.Fatal("a second Release pooled the store twice: two engines share it")
	}
}
