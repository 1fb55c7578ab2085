package plan

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dotprov/internal/types"
)

func TestPredMatches(t *testing.T) {
	cases := []struct {
		p    Pred
		v    types.Value
		want bool
	}{
		{Pred{Op: Eq, Lo: types.NewInt(5)}, types.NewInt(5), true},
		{Pred{Op: Eq, Lo: types.NewInt(5)}, types.NewInt(6), false},
		{Pred{Op: Lt, Lo: types.NewInt(5)}, types.NewInt(4), true},
		{Pred{Op: Lt, Lo: types.NewInt(5)}, types.NewInt(5), false},
		{Pred{Op: Le, Lo: types.NewInt(5)}, types.NewInt(5), true},
		{Pred{Op: Gt, Lo: types.NewInt(5)}, types.NewInt(6), true},
		{Pred{Op: Ge, Lo: types.NewInt(5)}, types.NewInt(5), true},
		{Pred{Op: Ge, Lo: types.NewInt(5)}, types.NewInt(4), false},
		{Pred{Op: Between, Lo: types.NewInt(2), Hi: types.NewInt(4)}, types.NewInt(3), true},
		{Pred{Op: Between, Lo: types.NewInt(2), Hi: types.NewInt(4)}, types.NewInt(2), true},
		{Pred{Op: Between, Lo: types.NewInt(2), Hi: types.NewInt(4)}, types.NewInt(4), true},
		{Pred{Op: Between, Lo: types.NewInt(2), Hi: types.NewInt(4)}, types.NewInt(5), false},
		{Pred{Op: Eq, Lo: types.NewString("x")}, types.NewString("x"), true},
	}
	for i, c := range cases {
		if got := c.p.Matches(c.v); got != c.want {
			t.Errorf("case %d: %v.Matches(%v) = %v, want %v", i, c.p, c.v, got, c.want)
		}
	}
}

// TestIntRangeMatchesMatches: on every operator, with int and date bounds
// and values at and around the bounds and the ends of int64, a value lies
// in IntRange exactly when Matches accepts it; bounds that are not ints or
// dates have no range.
func TestIntRangeMatchesMatches(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -5, -1, 0, 1, 2, 5, math.MaxInt64 - 1, math.MaxInt64}
	kinds := []func(int64) types.Value{types.NewInt, types.NewDate}
	for op := Eq; op <= Between+1; op++ {
		for _, lo := range edges {
			for _, hi := range edges {
				for _, lk := range kinds {
					p := Pred{Op: op, Lo: lk(lo), Hi: kinds[1](hi)}
					rlo, rhi, ok := p.IntRange()
					if !ok {
						t.Fatalf("%v: no range for integral bounds", p)
					}
					for _, x := range edges {
						for _, vk := range kinds {
							v := vk(x)
							if in := rlo <= x && x <= rhi; in != p.Matches(v) {
								t.Fatalf("op %d lo %d hi %d: %d in [%d, %d] is %v, Matches %v", op, lo, hi, x, rlo, rhi, in, p.Matches(v))
							}
						}
					}
				}
			}
		}
	}
	for _, p := range []Pred{
		{Op: Eq, Lo: types.NewFloat(1)},
		{Op: Lt, Lo: types.NewString("x")},
		{Op: Between, Lo: types.NewInt(1), Hi: types.NewFloat(2)},
	} {
		if _, _, ok := p.IntRange(); ok {
			t.Errorf("%v: a range for bounds that are not all ints or dates", p)
		}
	}
}

// Property: Between(lo, hi) equals Ge(lo) AND Le(hi).
func TestBetweenDecompositionProperty(t *testing.T) {
	f := func(lo, hi, v int32) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		b := Pred{Op: Between, Lo: types.NewInt(int64(lo)), Hi: types.NewInt(int64(hi))}
		ge := Pred{Op: Ge, Lo: types.NewInt(int64(lo))}
		le := Pred{Op: Le, Lo: types.NewInt(int64(hi))}
		val := types.NewInt(int64(v))
		return b.Matches(val) == (ge.Matches(val) && le.Matches(val))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func validQuery() *Query {
	return &Query{
		Name:   "q",
		Tables: []string{"orders", "lineitem"},
		Preds:  []Pred{{Table: "orders", Column: "o_orderdate", Op: Lt, Lo: types.NewDate(100)}},
		Joins: []EquiJoin{{
			LeftTable: "orders", LeftColumn: "o_orderkey",
			RightTable: "lineitem", RightColumn: "l_orderkey",
		}},
		Aggs: []Agg{{Func: Count}},
	}
}

func TestQueryValidate(t *testing.T) {
	if err := validQuery().Validate(); err != nil {
		t.Fatal(err)
	}
	q := validQuery()
	q.Tables = nil
	if q.Validate() == nil {
		t.Error("empty FROM should fail")
	}
	q = validQuery()
	q.Preds[0].Table = "nope"
	if q.Validate() == nil {
		t.Error("pred on unknown table should fail")
	}
	q = validQuery()
	q.Joins[0].RightTable = "nope"
	if q.Validate() == nil {
		t.Error("join on unknown table should fail")
	}
	q = validQuery()
	q.Joins[0].RightTable = "orders"
	if q.Validate() == nil {
		t.Error("self join should fail")
	}
	q = validQuery()
	q.Tables = []string{"orders", "orders"}
	if q.Validate() == nil {
		t.Error("duplicate table should fail")
	}
	q = validQuery()
	q.GroupBy = []ColRef{{Table: "zz", Column: "c"}}
	if q.Validate() == nil {
		t.Error("group-by unknown table should fail")
	}
	q = validQuery()
	q.Aggs = []Agg{{Func: Sum, Table: "zz", Column: "c"}}
	if q.Validate() == nil {
		t.Error("agg on unknown table should fail")
	}
}

func TestQueryHelpers(t *testing.T) {
	q := validQuery()
	if !q.HasTable("orders") || q.HasTable("nation") {
		t.Error("HasTable wrong")
	}
	if got := q.TablePreds("orders"); len(got) != 1 {
		t.Errorf("TablePreds(orders) = %d preds, want 1", len(got))
	}
	if got := q.TablePreds("lineitem"); len(got) != 0 {
		t.Errorf("TablePreds(lineitem) = %d preds, want 0", len(got))
	}
	s := q.String()
	for _, frag := range []string{"count(*)", "from orders, lineitem", "o_orderkey = lineitem.l_orderkey"} {
		if !strings.Contains(s, frag) {
			t.Errorf("query string %q missing %q", s, frag)
		}
	}
}

func TestNodeSchemas(t *testing.T) {
	scan := &SeqScan{
		Table: "t", Cols: []ColRef{{"t", "a"}, {"t", "b"}}, Rows: 100,
	}
	if len(scan.Schema()) != 2 || scan.EstRows() != 100 {
		t.Fatal("SeqScan schema/rows wrong")
	}
	inner := &SeqScan{Table: "u", Cols: []ColRef{{"u", "x"}}, Rows: 10}
	hj := &Join{Algo: HashJoin, Outer: scan, Inner: inner,
		OuterCol: ColRef{"t", "a"}, InnerCol: ColRef{"u", "x"}, Rows: 42}
	if got := hj.Schema(); len(got) != 3 || got[2] != (ColRef{"u", "x"}) {
		t.Fatalf("HashJoin schema = %v", got)
	}
	inlj := &Join{Algo: IndexNLJoin, Outer: scan, OuterCol: ColRef{"t", "a"},
		InnerTable: "u", InnerIndex: "u_pkey", InnerCols: []ColRef{{"u", "x"}}, Rows: 7}
	if got := inlj.Schema(); len(got) != 3 {
		t.Fatalf("INLJ schema = %v", got)
	}
	agg := &AggNode{Input: hj, GroupBy: []ColRef{{"t", "a"}},
		Aggs: []Agg{{Func: Sum, Table: "u", Column: "x"}}, Rows: 5}
	if got := agg.Schema(); len(got) != 2 || got[0] != (ColRef{"t", "a"}) {
		t.Fatalf("Agg schema = %v", got)
	}
	lim := &LimitNode{Input: agg, N: 3}
	if lim.EstRows() != 3 {
		t.Fatalf("Limit rows = %g, want 3", lim.EstRows())
	}
	lim2 := &LimitNode{Input: agg, N: 100}
	if lim2.EstRows() != 5 {
		t.Fatalf("Limit should not raise estimate: %g", lim2.EstRows())
	}
	if len(lim.Schema()) != len(agg.Schema()) {
		t.Fatal("Limit schema should pass through")
	}
}

func TestPlanJoinAlgosAndExplain(t *testing.T) {
	scanA := &SeqScan{Table: "a", Cols: []ColRef{{"a", "k"}}, Rows: 10}
	scanB := &SeqScan{Table: "b", Cols: []ColRef{{"b", "k"}}, Rows: 20}
	hj := &Join{Algo: HashJoin, Outer: scanA, Inner: scanB,
		OuterCol: ColRef{"a", "k"}, InnerCol: ColRef{"b", "k"}, Rows: 15}
	inlj := &Join{Algo: IndexNLJoin, Outer: hj, OuterCol: ColRef{"a", "k"},
		InnerTable: "c", InnerIndex: "c_pkey", InnerCols: []ColRef{{"c", "v"}}, Rows: 15}
	p := &Plan{
		Query: &Query{Name: "test-q", Tables: []string{"a", "b", "c"}},
		Root:  &LimitNode{Input: &AggNode{Input: inlj, Aggs: []Agg{{Func: Count}}, Rows: 1}, N: 1},
	}
	algos := p.JoinAlgos()
	if len(algos) != 2 || algos[0] != IndexNLJoin || algos[1] != HashJoin {
		t.Fatalf("JoinAlgos = %v", algos)
	}
	exp := p.Explain()
	for _, frag := range []string{"test-q", "INLJ", "HJ", "SeqScan(a)", "IndexProbe(c via c_pkey)", "Limit 1"} {
		if !strings.Contains(exp, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, exp)
		}
	}
}

func TestEstimateTime(t *testing.T) {
	e := Estimate{IOTime: 100, CPUTime: 23}
	if e.Time() != 123 {
		t.Fatalf("Time = %v", e.Time())
	}
}

func TestStringers(t *testing.T) {
	if HashJoin.String() != "HJ" || IndexNLJoin.String() != "INLJ" {
		t.Error("JoinAlgo strings wrong")
	}
	ops := map[CmpOp]string{Eq: "=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Between: "between"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v string = %q, want %q", op, op.String(), want)
		}
	}
	fns := map[AggFunc]string{Count: "count", Sum: "sum", Min: "min", Max: "max", Avg: "avg"}
	for fn, want := range fns {
		if fn.String() != want {
			t.Errorf("AggFunc string = %q, want %q", fn.String(), want)
		}
	}
	if (ColRef{"t", "c"}).String() != "t.c" {
		t.Error("ColRef string wrong")
	}
}
