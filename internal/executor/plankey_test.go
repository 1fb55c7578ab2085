package executor

import (
	"testing"

	"dotprov/internal/bufferpool"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// keyPlan is a plan with every kind of node and every field the executor
// reads set.
func keyPlan() *plan.LimitNode {
	pred := func(col string, v int64) plan.Pred {
		return plan.Pred{Table: "t", Column: col, Op: plan.Between, Lo: types.NewInt(v), Hi: types.NewFloat(2.5)}
	}
	cols := []plan.ColRef{{Table: "t", Column: "a"}, {Table: "t", Column: "b"}}
	return &plan.LimitNode{N: 10, Input: &plan.AggNode{
		GroupBy: []plan.ColRef{{Table: "t", Column: "a"}},
		Aggs:    []plan.Agg{{Func: plan.Sum, Table: "t", Column: "b"}},
		Rows:    3,
		Input: &plan.Join{
			Algo: plan.HashJoin,
			Outer: &plan.Join{
				Algo:         plan.IndexNLJoin,
				Outer:        &plan.SeqScan{Table: "t", TableID: 1, Filter: []plan.Pred{pred("a", 1)}, Cols: cols, Rows: 5},
				OuterCol:     plan.ColRef{Table: "t", Column: "a"},
				InnerTable:   "u",
				InnerTableID: 2, InnerIndex: "u_pkey", InnerIndexID: 3,
				InnerResidual: []plan.Pred{pred("c", 4)},
				InnerCols:     []plan.ColRef{{Table: "u", Column: "c"}},
				Rows:          7,
			},
			OuterCol: plan.ColRef{Table: "t", Column: "b"},
			Inner: &plan.IndexScan{Table: "v", TableID: 4, Index: "v_pkey", IndexID: 5, Column: "d",
				Op: plan.Ge, Lo: types.NewString("x"), Residual: []plan.Pred{pred("e", 6)},
				Cols: []plan.ColRef{{Table: "v", Column: "d"}}, Rows: 9},
			InnerCol: plan.ColRef{Table: "v", Column: "d"},
			Rows:     11,
		},
	}}
}

func encodePlan(t *testing.T, n plan.Node) string {
	t.Helper()
	w := planKey{}
	if !w.node(n) {
		t.Fatal("a plan of known nodes was refused")
	}
	return string(w.b)
}

// TestPlanKeyCoversWhatOperatorsRead: changing any field an operator reads
// changes a plan's key, and changing an estimate does not.
func TestPlanKeyCoversWhatOperatorsRead(t *testing.T) {
	base := encodePlan(t, keyPlan())
	agg := func(p *plan.LimitNode) *plan.AggNode { return p.Input.(*plan.AggNode) }
	hj := func(p *plan.LimitNode) *plan.Join { return agg(p).Input.(*plan.Join) }
	inlj := func(p *plan.LimitNode) *plan.Join { return hj(p).Outer.(*plan.Join) }
	scan := func(p *plan.LimitNode) *plan.SeqScan { return inlj(p).Outer.(*plan.SeqScan) }
	ix := func(p *plan.LimitNode) *plan.IndexScan { return hj(p).Inner.(*plan.IndexScan) }
	for name, change := range map[string]func(*plan.LimitNode){
		"limit":           func(p *plan.LimitNode) { p.N = 11 },
		"group by":        func(p *plan.LimitNode) { agg(p).GroupBy[0].Column = "b" },
		"aggregate":       func(p *plan.LimitNode) { agg(p).Aggs[0].Func = plan.Max },
		"aggregated":      func(p *plan.LimitNode) { agg(p).Aggs[0].Column = "a" },
		"algorithm":       func(p *plan.LimitNode) { hj(p).Algo = plan.IndexNLJoin },
		"outer column":    func(p *plan.LimitNode) { hj(p).OuterCol.Column = "a" },
		"inner column":    func(p *plan.LimitNode) { hj(p).InnerCol.Table = "w" },
		"inner table":     func(p *plan.LimitNode) { inlj(p).InnerTableID = 9 },
		"inner index":     func(p *plan.LimitNode) { inlj(p).InnerIndexID = 9 },
		"inner residual":  func(p *plan.LimitNode) { inlj(p).InnerResidual = nil },
		"inner columns":   func(p *plan.LimitNode) { inlj(p).InnerCols[0].Column = "d" },
		"scan table":      func(p *plan.LimitNode) { scan(p).Table = "u" },
		"scan id":         func(p *plan.LimitNode) { scan(p).TableID = 9 },
		"filter value":    func(p *plan.LimitNode) { scan(p).Filter[0].Lo = types.NewInt(2) },
		"filter kind":     func(p *plan.LimitNode) { scan(p).Filter[0].Lo = types.NewDate(1) },
		"filter high":     func(p *plan.LimitNode) { scan(p).Filter[0].Hi = types.NewFloat(2.25) },
		"filter op":       func(p *plan.LimitNode) { scan(p).Filter[0].Op = plan.Eq },
		"filter column":   func(p *plan.LimitNode) { scan(p).Filter[0].Column = "b" },
		"scan columns":    func(p *plan.LimitNode) { scan(p).Cols = scan(p).Cols[:1] },
		"index":           func(p *plan.LimitNode) { ix(p).IndexID = 9 },
		"range op":        func(p *plan.LimitNode) { ix(p).Op = plan.Gt },
		"range bound":     func(p *plan.LimitNode) { ix(p).Lo = types.NewString("x\x00") },
		"index residual":  func(p *plan.LimitNode) { ix(p).Residual[0].Lo = types.NewInt(7) },
		"index columns":   func(p *plan.LimitNode) { ix(p).Cols = nil },
		"swapped strings": func(p *plan.LimitNode) { ix(p).Table, ix(p).Index = "v_pkey", "v" },
	} {
		p := keyPlan()
		change(p)
		if encodePlan(t, p) == base {
			t.Errorf("changing the %s leaves the key as it was", name)
		}
	}
	p := keyPlan()
	agg(p).Rows, hj(p).Rows, inlj(p).Rows, scan(p).Rows, ix(p).Rows = 1, 2, 3, 4, 5
	if encodePlan(t, p) != base {
		t.Error("changing the estimates changes the key")
	}
}

// TestKeepRefusesAnEndedEpoch: a run that began before a write keeps
// nothing when it ends after a run in the write's epoch has looked, and a
// lookup in a later epoch replays nothing kept before it.
func TestKeepRefusesAnEndedEpoch(t *testing.T) {
	var m Traces
	key, hit := m.find(keyPlan(), 1)
	if key == nil || hit != nil {
		t.Fatal("an empty memo should hand out a key")
	}
	if later, _ := m.find(keyPlan(), 2); later == nil {
		t.Fatal("a later epoch should be handed a key")
	}
	m.keep(key, []bufferpool.Access{{Page: bufferpool.PageKey{Object: 1}}}, 1, &Result{Rows: 1})
	if len(m.plans) != 0 || m.bytes != 0 {
		t.Fatalf("a trace of an ended epoch was kept: %d plans, %d bytes", len(m.plans), m.bytes)
	}
	key, _ = m.find(keyPlan(), 2)
	m.keep(key, []bufferpool.Access{{Page: bufferpool.PageKey{Object: 1}}}, 1, &Result{Rows: 1})
	if _, hit = m.find(keyPlan(), 2); hit == nil || hit.rows != 1 {
		t.Fatal("a trace of the current epoch was not kept")
	}
	if _, hit = m.find(keyPlan(), 3); hit != nil || len(m.plans) != 0 || m.bytes != 0 {
		t.Fatalf("a later epoch found a trace (%v) or kept the earlier one's: %d plans, %d bytes", hit != nil, len(m.plans), m.bytes)
	}
}
