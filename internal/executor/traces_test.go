package executor_test

import (
	"bytes"
	"testing"

	"dotprov/internal/executor"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// TestMemoHoldsOneEpoch: the memo fills as plans execute; after a write no
// run replays a trace kept before it, the first run drops them all, and
// the runs after the write fill the memo again, executing every plan.
func TestMemoHoldsOneEpoch(t *testing.T) {
	db := scanDB(t, scanRows())
	plans := scanPlans(t, db)
	executed := executor.CountExecutions(t)
	for range 2 {
		scanAll(t, db)
	}
	if n, size := executor.MemoSize(db); n != len(plans) || size <= 0 || executed() != len(plans) {
		t.Fatalf("after two rounds of %d plans: %d kept (%d bytes), %d executed", len(plans), n, size, executed())
	}
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Insert("w", scanRow(400)); err != nil {
		t.Fatal(err)
	}
	runNode(t, db, plans[0])
	if n, _ := executor.MemoSize(db); n != 1 || executed() != len(plans)+1 {
		t.Fatalf("the first run after a write: %d kept, %d executed, want 1 and %d", n, executed(), len(plans)+1)
	}
	scanAll(t, db)
	if n, _ := executor.MemoSize(db); n != len(plans) || executed() != 2*len(plans) {
		t.Fatalf("after the write: %d kept, %d executed of %d", n, executed(), 2*len(plans))
	}
}

// TestReplayedResultBelongsToCaller: a caller may change the tuples Run
// returns, even append to one, and a later run of the plan — a replay —
// still answers as the first did.
func TestReplayedResultBelongsToCaller(t *testing.T) {
	db := scanDB(t, scanRows())
	root := scanPlans(t, db)[2]
	first := runNode(t, db, root)
	want := encodeRows(first.Tuples)
	for i := range 2 {
		res := runNode(t, db, root)
		if len(res.Tuples) < 2 || !bytes.Equal(encodeRows(res.Tuples), want) {
			t.Fatalf("run %d answered differently from the first", i+2)
		}
		res.Tuples[0] = append(res.Tuples[0], types.NewString("appended"))
		res.Tuples[1][0] = types.NewString("changed")
	}
	first.Tuples[0][0] = types.NewString("changed")
	if res := runNode(t, db, &plan.LimitNode{N: 1 << 20, Input: root}); !bytes.Equal(encodeRows(res.Tuples), want) {
		t.Fatal("the plan under a limit answered differently")
	}
	if res := runNode(t, db, root); !bytes.Equal(encodeRows(res.Tuples), want) {
		t.Fatal("a replay answered what an earlier caller changed")
	}
}
