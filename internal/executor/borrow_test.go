package executor_test

import (
	"bytes"
	"fmt"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/executor"
	"dotprov/internal/plan"
	"dotprov/internal/tpch"
	"dotprov/internal/types"
)

// TestBorrowedTuplesSurvivePoisoning runs every TPC-H template, original
// and modified, on both golden layouts twice: through Run, which
// TestTPCHGolden pins, and under the poisoning checker with a consumer that
// copies what it keeps. Rows, their order and every charge must agree — no
// operator reads a tuple after the emit it was lent for — while a consumer
// that retains the lent tuples gets nothing but poison.
func TestBorrowedTuplesSurvivePoisoning(t *testing.T) {
	db := engine.New(device.Box2(), engine.DefaultPoolPages)
	cfg := tpch.Config{ScaleFactor: 0.001, Seed: 1}
	if err := tpch.Build(db, cfg); err != nil {
		t.Fatal(err)
	}
	queries := append(tpch.OriginalWorkload(cfg, 2).Queries[:22:22], tpch.ModifiedWorkload(cfg, 2).Queries[:5]...)
	encode := func(tuples []types.Tuple) []byte {
		var b []byte
		for _, tu := range tuples {
			b = append(types.EncodeTuple(b, tu), 0xff)
		}
		return b
	}
	for _, cls := range []device.Class{device.HDD, device.HSSD} {
		if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, cls)); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			pl, err := db.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v/%s", cls, q.Name)

			db.ClearPool()
			plain, err := db.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.RunPlan(pl)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			db.ClearPool()
			checked, err := db.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			var copied, retained []types.Tuple
			err = executor.RunPoisoned(db, checked.Acct(), pl.Root, func(tu types.Tuple) bool {
				copied = append(copied, tu.Clone())
				retained = append(retained, tu)
				return true
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if int64(len(copied)) != want.Rows || !bytes.Equal(encode(copied), encode(want.Tuples)) {
				t.Errorf("%s: rows under the checker differ from Run's", name)
			}
			if checked.Acct().Now() != plain.Acct().Now() || checked.Acct().CPUTime() != plain.Acct().CPUTime() {
				t.Errorf("%s: charges under the checker differ from Run's", name)
			}
			for _, tu := range retained {
				for _, v := range tu {
					if v != executor.Poison {
						t.Fatalf("%s: a tuple retained without a copy kept %v — the checker missed it", name, v)
					}
				}
			}
		}
	}
}

// allocDB loads dim(k, name) with 50 rows and fact(id, fk, val, note) with
// n, every page resident, and returns a function executing a plan in a
// fresh session.
func allocDB(t *testing.T, n int) (*engine.DB, func(plan.Node)) {
	t.Helper()
	db := engine.New(device.Box1(), 4096)
	for _, tab := range []struct {
		name string
		cols []types.Column
	}{
		{"dim", []types.Column{{Name: "k", Kind: types.KindInt}, {Name: "name", Kind: types.KindString}}},
		{"fact", []types.Column{{Name: "id", Kind: types.KindInt}, {Name: "fk", Kind: types.KindInt},
			{Name: "val", Kind: types.KindInt}, {Name: "note", Kind: types.KindString}}},
	} {
		if _, err := db.CreateTable(tab.name, types.NewSchema(tab.cols...), []string{tab.cols[0].Name}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := db.Load("dim", types.Tuple{types.NewInt(int64(i)), types.NewString("dim-row")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		row := types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 50)), types.NewInt(int64(i % 3)), types.NewString("a note nobody reads")}
		if err := db.Load("fact", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return db, func(root plan.Node) {
		if _, err := executor.Run(noMemo{db}, sess.Acct(), &plan.Plan{Query: &plan.Query{Name: "alloc"}, Root: root}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocationsDoNotGrowWithScannedRows is the regression test for the
// borrowed-tuple flow: what a plan allocates is set by what it retains —
// groups, build rows — never by how many rows pass through it. A scan under
// an aggregate, and the probe side of a hash join, allocate the same for N
// and 4N rows; a build side grows by its chunks alone.
func TestAllocationsDoNotGrowWithScannedRows(t *testing.T) {
	const n = 2000
	measure := func(rows int, root func(db *engine.DB) plan.Node) float64 {
		db, run := allocDB(t, rows)
		node := root(db)
		return testing.AllocsPerRun(3, func() { run(node) })
	}
	fact := func(db *engine.DB) *plan.SeqScan {
		return &plan.SeqScan{
			Table: "fact", TableID: tableID(t, db, "fact"),
			Filter: []plan.Pred{{Table: "fact", Column: "val", Op: plan.Le, Lo: types.NewInt(1)}},
			Cols:   append(factCols(), plan.ColRef{Table: "fact", Column: "note"}),
		}
	}
	dim := func(db *engine.DB) *plan.SeqScan {
		return &plan.SeqScan{Table: "dim", TableID: tableID(t, db, "dim"), Cols: dimCols()}
	}
	sumByFK := func(in plan.Node) plan.Node {
		return &plan.AggNode{
			Input:   in,
			GroupBy: []plan.ColRef{{Table: "fact", Column: "fk"}},
			Aggs:    []plan.Agg{{Func: plan.Count}, {Func: plan.Sum, Table: "fact", Column: "val"}},
		}
	}
	join := func(outer, inner plan.Node, outerCol, innerCol plan.ColRef) plan.Node {
		return &plan.Join{Algo: plan.HashJoin, Outer: outer, OuterCol: outerCol, Inner: inner, InnerCol: innerCol}
	}
	fk, k := plan.ColRef{Table: "fact", Column: "fk"}, plan.ColRef{Table: "dim", Column: "k"}

	cases := []struct {
		name string
		root func(db *engine.DB) plan.Node
		grow float64 // allocations 4N rows may add to N rows'
	}{
		{"scan->agg", func(db *engine.DB) plan.Node { return sumByFK(fact(db)) }, 0},
		{"scan->hj(probe)->agg", func(db *engine.DB) plan.Node { return sumByFK(join(fact(db), dim(db), fk, k)) }, 0},
		// The build side retains 2/3 of fact's rows: two allocations (chunk
		// and its values) per 256 of them, and the chunk list's growth.
		{"scan->hj(build)->agg", func(db *engine.DB) plan.Node { return sumByFK(join(dim(db), fact(db), k, fk)) },
			2*float64(3*n*2/3/256+1) + 4},
	}
	for _, c := range cases {
		small, large := measure(n, c.root), measure(4*n, c.root)
		t.Logf("%s: %.0f allocations over %d rows, %.0f over %d", c.name, small, n, large, 4*n)
		if large > small+c.grow {
			t.Errorf("%s: allocations grew from %.0f to %.0f with 4x the rows (allowed +%.0f)", c.name, small, large, c.grow)
		}
	}
}
