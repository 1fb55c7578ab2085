package executor_test

import (
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/executor"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// harness builds a two-table database and returns the engine plus direct
// access to planning, so executor behaviour can be pinned operator by
// operator.
//
//	dim(k PK, name): 50 rows
//	fact(id PK, fk, val): 1000 rows, fk -> dim.k, 20 facts per dim row
func harness(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(device.Box1(), 512)
	dim := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
	)
	if _, err := db.CreateTable("dim", dim, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	fact := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "fk", Kind: types.KindInt},
		types.Column{Name: "val", Kind: types.KindInt},
	)
	if _, err := db.CreateTable("fact", fact, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("fact_fk", "fact", []string{"fk"}, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Load("dim", types.Tuple{types.NewInt(int64(i)), types.NewString("dim-row")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if err := db.Load("fact", types.Tuple{
			types.NewInt(int64(i)), types.NewInt(int64(i % 50)), types.NewInt(int64(i % 3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// runNode runs a hand-built physical plan.
func runNode(t *testing.T, db *engine.DB, root plan.Node) *executor.Result {
	return runOn(t, db, db, root)
}

// runOn runs a hand-built physical plan on st in a new session of db.
func runOn(t *testing.T, db *engine.DB, st executor.Storage, root plan.Node) *executor.Result {
	t.Helper()
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	res, err := executor.Run(st, sess.Acct(), &plan.Plan{Query: &plan.Query{Name: "manual"}, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// noMemo lends a database to the tests that measure execution itself —
// what a run allocates, what its joins leave in the recycled storage —
// without its memo, so that Run executes every plan however often it ran
// before instead of replaying it.
type noMemo struct{ *engine.DB }

// Traces implements executor.Storage: no memo.
func (noMemo) Traces() *executor.Traces { return nil }

func tableID(t *testing.T, db *engine.DB, name string) catalog.ObjectID {
	tab, err := db.Cat.TableByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab.ID
}

func indexID(t *testing.T, db *engine.DB, name string) catalog.ObjectID {
	ix, err := db.Cat.IndexByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return ix.ID
}

func factCols() []plan.ColRef {
	return []plan.ColRef{{Table: "fact", Column: "id"}, {Table: "fact", Column: "fk"}, {Table: "fact", Column: "val"}}
}

func dimCols() []plan.ColRef {
	return []plan.ColRef{{Table: "dim", Column: "k"}, {Table: "dim", Column: "name"}}
}

func TestSeqScanWithFilter(t *testing.T) {
	db := harness(t)
	res := runNode(t, db, &plan.SeqScan{
		Table: "fact", TableID: tableID(t, db, "fact"),
		Filter: []plan.Pred{{Table: "fact", Column: "val", Op: plan.Eq, Lo: types.NewInt(0)}},
		Cols:   factCols(),
	})
	// val = i%3 == 0 for 334 of 1000 rows.
	if res.Rows != 334 {
		t.Fatalf("filtered rows = %d, want 334", res.Rows)
	}
}

func TestIndexScanOperatorsAllOps(t *testing.T) {
	db := harness(t)
	cases := []struct {
		op     plan.CmpOp
		lo, hi int64
		want   int64
	}{
		{plan.Eq, 500, 0, 1},
		{plan.Lt, 10, 0, 10},
		{plan.Le, 10, 0, 11},
		{plan.Gt, 990, 0, 9},
		{plan.Ge, 990, 0, 10},
		{plan.Between, 100, 199, 100},
	}
	for _, c := range cases {
		res := runNode(t, db, &plan.IndexScan{
			Table: "fact", TableID: tableID(t, db, "fact"),
			Index: "fact_pkey", IndexID: indexID(t, db, "fact_pkey"),
			Column: "id", Op: c.op, Lo: types.NewInt(c.lo), Hi: types.NewInt(c.hi),
			Cols: factCols(),
		})
		if res.Rows != c.want {
			t.Errorf("op %v [%d,%d]: rows = %d, want %d", c.op, c.lo, c.hi, res.Rows, c.want)
		}
	}
}

func TestIndexScanResidual(t *testing.T) {
	db := harness(t)
	res := runNode(t, db, &plan.IndexScan{
		Table: "fact", TableID: tableID(t, db, "fact"),
		Index: "fact_pkey", IndexID: indexID(t, db, "fact_pkey"),
		Column: "id", Op: plan.Lt, Lo: types.NewInt(100),
		Residual: []plan.Pred{{Table: "fact", Column: "val", Op: plan.Eq, Lo: types.NewInt(1)}},
		Cols:     factCols(),
	})
	// ids 0..99 with id%3==1 -> 33 rows.
	if res.Rows != 33 {
		t.Fatalf("residual-filtered rows = %d, want 33", res.Rows)
	}
}

func TestHashJoinMatchesIndexJoin(t *testing.T) {
	db := harness(t)
	outer := &plan.SeqScan{
		Table: "dim", TableID: tableID(t, db, "dim"),
		Filter: []plan.Pred{{Table: "dim", Column: "k", Op: plan.Lt, Lo: types.NewInt(5)}},
		Cols:   dimCols(),
	}
	hj := &plan.Join{
		Algo:  plan.HashJoin,
		Outer: outer, OuterCol: plan.ColRef{Table: "dim", Column: "k"},
		Inner:    &plan.SeqScan{Table: "fact", TableID: tableID(t, db, "fact"), Cols: factCols()},
		InnerCol: plan.ColRef{Table: "fact", Column: "fk"},
	}
	inlj := &plan.Join{
		Algo:  plan.IndexNLJoin,
		Outer: outer, OuterCol: plan.ColRef{Table: "dim", Column: "k"},
		InnerTable: "fact", InnerTableID: tableID(t, db, "fact"),
		InnerIndex: "fact_fk", InnerIndexID: indexID(t, db, "fact_fk"),
		InnerCols: factCols(),
	}
	hjRes := runNode(t, db, hj)
	inljRes := runNode(t, db, inlj)
	// 5 dims x 20 facts each = 100 rows, identical for both algorithms.
	if hjRes.Rows != 100 || inljRes.Rows != 100 {
		t.Fatalf("HJ = %d, INLJ = %d, want 100 each", hjRes.Rows, inljRes.Rows)
	}
	// Joined tuples carry outer columns then inner columns.
	if len(hjRes.Tuples[0]) != 5 || len(inljRes.Tuples[0]) != 5 {
		t.Fatal("joined width should be 2 + 3 columns")
	}
}

func TestINLJInnerResidual(t *testing.T) {
	db := harness(t)
	res := runNode(t, db, &plan.Join{
		Algo: plan.IndexNLJoin,
		Outer: &plan.SeqScan{
			Table: "dim", TableID: tableID(t, db, "dim"),
			Filter: []plan.Pred{{Table: "dim", Column: "k", Op: plan.Eq, Lo: types.NewInt(3)}},
			Cols:   dimCols(),
		},
		OuterCol:   plan.ColRef{Table: "dim", Column: "k"},
		InnerTable: "fact", InnerTableID: tableID(t, db, "fact"),
		InnerIndex: "fact_fk", InnerIndexID: indexID(t, db, "fact_fk"),
		InnerResidual: []plan.Pred{{
			Table: "fact", Column: "val", Op: plan.Eq, Lo: types.NewInt(0),
		}},
		InnerCols: factCols(),
	})
	// Facts with fk=3: ids 3,53,...,953; val=id%3==0 for 7 of them.
	if res.Rows != 7 {
		t.Fatalf("INLJ residual rows = %d, want 7", res.Rows)
	}
}

func TestAggregatesAllFunctions(t *testing.T) {
	db := harness(t)
	res := runNode(t, db, &plan.AggNode{
		Input: &plan.SeqScan{Table: "fact", TableID: tableID(t, db, "fact"), Cols: factCols()},
		Aggs: []plan.Agg{
			{Func: plan.Count},
			{Func: plan.Sum, Table: "fact", Column: "val"},
			{Func: plan.Min, Table: "fact", Column: "id"},
			{Func: plan.Max, Table: "fact", Column: "id"},
			{Func: plan.Avg, Table: "fact", Column: "val"},
		},
	})
	if res.Rows != 1 {
		t.Fatalf("global aggregate rows = %d, want 1", res.Rows)
	}
	tu := res.Tuples[0]
	if tu[0].Int != 1000 {
		t.Errorf("count = %d, want 1000", tu[0].Int)
	}
	if tu[1].F != 999 { // sum of i%3 over 0..999 = 333*1 + 333*2 = 999
		t.Errorf("sum = %g, want 999", tu[1].F)
	}
	if tu[2].Int != 0 || tu[3].Int != 999 {
		t.Errorf("min/max = %v/%v, want 0/999", tu[2], tu[3])
	}
	if tu[4].F != 0.999 {
		t.Errorf("avg = %g, want 0.999", tu[4].F)
	}
}

func TestGroupByCounts(t *testing.T) {
	db := harness(t)
	res := runNode(t, db, &plan.AggNode{
		Input:   &plan.SeqScan{Table: "fact", TableID: tableID(t, db, "fact"), Cols: factCols()},
		GroupBy: []plan.ColRef{{Table: "fact", Column: "fk"}},
		Aggs:    []plan.Agg{{Func: plan.Count}},
	})
	if res.Rows != 50 {
		t.Fatalf("groups = %d, want 50", res.Rows)
	}
	for _, tu := range res.Tuples {
		if tu[1].Int != 20 {
			t.Fatalf("group %v count = %d, want 20", tu[0], tu[1].Int)
		}
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := harness(t)
	res := runNode(t, db, &plan.AggNode{
		Input: &plan.SeqScan{
			Table: "fact", TableID: tableID(t, db, "fact"),
			Filter: []plan.Pred{{Table: "fact", Column: "id", Op: plan.Lt, Lo: types.NewInt(-1)}},
			Cols:   factCols(),
		},
		Aggs: []plan.Agg{{Func: plan.Count}, {Func: plan.Sum, Table: "fact", Column: "val"}},
	})
	if res.Rows != 1 {
		t.Fatalf("empty global aggregate should still emit one row, got %d", res.Rows)
	}
	if res.Tuples[0][0].Int != 0 {
		t.Fatalf("count over empty input = %v, want 0", res.Tuples[0][0])
	}
}

func TestLimitStopsEarly(t *testing.T) {
	db := harness(t)
	res := runNode(t, db, &plan.LimitNode{
		Input: &plan.SeqScan{Table: "fact", TableID: tableID(t, db, "fact"), Cols: factCols()},
		N:     7,
	})
	if res.Rows != 7 {
		t.Fatalf("limited rows = %d, want 7", res.Rows)
	}
	// A limit above an index scan must stop the tree walk early: the
	// session's charged index I/O stays far below a full scan's.
	sess, _ := db.NewSession()
	db.ClearPool()
	lim := &plan.LimitNode{
		Input: &plan.IndexScan{
			Table: "fact", TableID: tableID(t, db, "fact"),
			Index: "fact_pkey", IndexID: indexID(t, db, "fact_pkey"),
			Column: "id", Op: plan.Ge, Lo: types.NewInt(0),
			Cols: factCols(),
		},
		N: 3,
	}
	if _, err := executor.Run(db, sess.Acct(), &plan.Plan{Query: &plan.Query{Name: "lim"}, Root: lim}); err != nil {
		t.Fatal(err)
	}
	fact, _ := db.Cat.TableByName("fact")
	if got := sess.Acct().Profile().Get(fact.ID)[device.RandRead]; got > 4 {
		t.Fatalf("limit-3 index scan fetched %g rows from the heap", got)
	}
}

func TestExecutorErrors(t *testing.T) {
	db := harness(t)
	sess, _ := db.NewSession()
	bad := &plan.SeqScan{Table: "nope", TableID: 999, Cols: nil}
	if _, err := executor.Run(db, sess.Acct(), &plan.Plan{Query: &plan.Query{Name: "x"}, Root: bad}); err == nil {
		t.Fatal("scan of unknown table should fail")
	}
	badPred := &plan.SeqScan{
		Table: "fact", TableID: tableID(t, db, "fact"),
		Filter: []plan.Pred{{Table: "fact", Column: "ghost", Op: plan.Eq, Lo: types.NewInt(1)}},
		Cols:   factCols(),
	}
	if _, err := executor.Run(db, sess.Acct(), &plan.Plan{Query: &plan.Query{Name: "x"}, Root: badPred}); err == nil {
		t.Fatal("predicate on unknown column should fail")
	}
	badJoin := &plan.Join{
		Algo:  plan.HashJoin,
		Outer: &plan.SeqScan{Table: "dim", TableID: tableID(t, db, "dim"), Cols: dimCols()},
		Inner: &plan.SeqScan{Table: "fact", TableID: tableID(t, db, "fact"), Cols: factCols()},
		// Join column not present in either schema.
		OuterCol: plan.ColRef{Table: "dim", Column: "ghost"},
		InnerCol: plan.ColRef{Table: "fact", Column: "fk"},
	}
	if _, err := executor.Run(db, sess.Acct(), &plan.Plan{Query: &plan.Query{Name: "x"}, Root: badJoin}); err == nil {
		t.Fatal("join on unknown column should fail")
	}
}
