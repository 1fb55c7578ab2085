package optimizer

import (
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// fixture builds two tables with PK indexes:
//
//	big(id PK, val, grp): 1M rows, 10k pages
//	small(id PK, ref):    10k rows, 100 pages, ref -> big.id
func fixture() (*Optimizer, catalog.Layout, map[string]catalog.ObjectID) {
	box := device.Box1()
	o := New(box, 1)
	ids := map[string]catalog.ObjectID{
		"big": 1, "big_pkey": 2, "small": 3, "small_pkey": 4,
	}
	bigSchema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "val", Kind: types.KindInt},
		types.Column{Name: "grp", Kind: types.KindInt},
	)
	o.AddTable(&TableInfo{
		Name: "big", ID: ids["big"], Rows: 1e6, Pages: 1e4,
		Schema: bigSchema,
		Cols: map[string]*ColStats{
			"id":  {NDV: 1e6, Min: types.NewInt(1), Max: types.NewInt(1e6), HasRange: true},
			"val": {NDV: 1000, Min: types.NewInt(0), Max: types.NewInt(999), HasRange: true},
			"grp": {NDV: 50, Min: types.NewInt(0), Max: types.NewInt(49), HasRange: true},
		},
		Indexes: []*IndexInfo{{
			Name: "big_pkey", ID: ids["big_pkey"], Column: "id", Columns: []string{"id"},
			Unique: true, Height: 3, LeafPages: 4000, Entries: 1e6,
		}},
	})
	smallSchema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "ref", Kind: types.KindInt},
	)
	o.AddTable(&TableInfo{
		Name: "small", ID: ids["small"], Rows: 1e4, Pages: 100,
		Schema: smallSchema,
		Cols: map[string]*ColStats{
			"id":  {NDV: 1e4, Min: types.NewInt(1), Max: types.NewInt(1e4), HasRange: true},
			"ref": {NDV: 1e6, Min: types.NewInt(1), Max: types.NewInt(1e6), HasRange: true},
		},
		Indexes: []*IndexInfo{{
			Name: "small_pkey", ID: ids["small_pkey"], Column: "id", Columns: []string{"id"},
			Unique: true, Height: 2, LeafPages: 40, Entries: 1e4,
		}},
	})
	layout := catalog.Layout{
		ids["big"]: device.HSSD, ids["big_pkey"]: device.HSSD,
		ids["small"]: device.HSSD, ids["small_pkey"]: device.HSSD,
	}
	return o, layout, ids
}

func uniform(ids map[string]catalog.ObjectID, c device.Class) catalog.Layout {
	l := make(catalog.Layout)
	for _, id := range ids {
		l[id] = c
	}
	return l
}

func TestPointQueryUsesIndexOnSSD(t *testing.T) {
	o, layout, _ := fixture()
	q := &plan.Query{
		Name:   "point",
		Tables: []string{"big"},
		Preds:  []plan.Pred{{Table: "big", Column: "id", Op: plan.Eq, Lo: types.NewInt(42)}},
		Aggs:   []plan.Agg{{Func: plan.Count}},
	}
	pl, err := o.Plan(q, layout)
	if err != nil {
		t.Fatal(err)
	}
	// Under the agg sits the scan.
	agg, ok := pl.Root.(*plan.AggNode)
	if !ok {
		t.Fatalf("root is %T, want AggNode", pl.Root)
	}
	if _, ok := agg.Input.(*plan.IndexScan); !ok {
		t.Fatalf("point lookup on H-SSD should use the index, got %s", agg.Input.Describe())
	}
	if pl.Est.Rows != 1 {
		t.Fatalf("aggregate output rows = %g, want 1", pl.Est.Rows)
	}
}

func TestRangeScanChoiceFlipsWithStorageClass(t *testing.T) {
	o, _, ids := fixture()
	// A 0.2% range on big.id: cheap by index on the H-SSD (fast RR), but on
	// the HDD RAID 0 the ~2000 random heap fetches cost far more than
	// scanning all 10k pages sequentially (RR is ~250x slower than SR).
	q := &plan.Query{
		Name:   "range",
		Tables: []string{"big"},
		Preds: []plan.Pred{{
			Table: "big", Column: "id", Op: plan.Between,
			Lo: types.NewInt(1), Hi: types.NewInt(2000),
		}},
		Aggs: []plan.Agg{{Func: plan.Count}},
	}
	onSSD, err := o.Plan(q, uniform(ids, device.HSSD))
	if err != nil {
		t.Fatal(err)
	}
	onHDD, err := o.Plan(q, uniform(ids, device.HDDRAID0))
	if err != nil {
		t.Fatal(err)
	}
	ssdScan := onSSD.Root.(*plan.AggNode).Input
	hddScan := onHDD.Root.(*plan.AggNode).Input
	if _, ok := ssdScan.(*plan.IndexScan); !ok {
		t.Errorf("on H-SSD the 5%% range should use the index, got %s", ssdScan.Describe())
	}
	if _, ok := hddScan.(*plan.SeqScan); !ok {
		t.Errorf("on HDD RAID0 the 5%% range should seq-scan, got %s", hddScan.Describe())
	}
}

func TestJoinAlgoFlipsWithStorageClass(t *testing.T) {
	o, _, ids := fixture()
	// small (filtered to ~50 rows) joins big on big.id: with big's index on
	// the H-SSD, 50 index probes beat hashing 1M rows; on the HDD the random
	// probes are ruinous and hash join wins.
	q := &plan.Query{
		Name:   "join",
		Tables: []string{"small", "big"},
		Preds: []plan.Pred{{
			Table: "small", Column: "id", Op: plan.Between,
			Lo: types.NewInt(1), Hi: types.NewInt(50),
		}},
		Joins: []plan.EquiJoin{{
			LeftTable: "small", LeftColumn: "ref",
			RightTable: "big", RightColumn: "id",
		}},
		Aggs: []plan.Agg{{Func: plan.Count}},
	}
	onSSD, err := o.Plan(q, uniform(ids, device.HSSD))
	if err != nil {
		t.Fatal(err)
	}
	onHDD, err := o.Plan(q, uniform(ids, device.HDDRAID0))
	if err != nil {
		t.Fatal(err)
	}
	ssdAlgos := onSSD.JoinAlgos()
	hddAlgos := onHDD.JoinAlgos()
	if len(ssdAlgos) != 1 || ssdAlgos[0] != plan.IndexNLJoin {
		t.Errorf("on H-SSD want INLJ, got %v", ssdAlgos)
	}
	if len(hddAlgos) != 1 || hddAlgos[0] != plan.HashJoin {
		t.Errorf("on HDD RAID0 want HJ, got %v", hddAlgos)
	}
}

func TestEstimateProfileAccounting(t *testing.T) {
	o, _, ids := fixture()
	q := &plan.Query{
		Name:   "scan-all",
		Tables: []string{"big"},
		Aggs:   []plan.Agg{{Func: plan.Count}},
	}
	layout := uniform(ids, device.LSSD)
	pl, err := o.Plan(q, layout)
	if err != nil {
		t.Fatal(err)
	}
	v := pl.Est.Profile.Get(ids["big"])
	if v[device.SeqRead] != 1e4 {
		t.Fatalf("full scan should cost 10k SR pages, got %g", v[device.SeqRead])
	}
	if v[device.RandRead] != 0 {
		t.Fatal("full scan should have no random reads")
	}
	// I/O time must equal the profile evaluated against the layout.
	box := o.Box
	want, err := pl.Est.Profile.IOTime(layout, box, o.Concurrency)
	if err != nil {
		t.Fatal(err)
	}
	diff := pl.Est.IOTime - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 1000 { // a microsecond of float slack
		t.Fatalf("estimate IO time %v != profile-derived %v", pl.Est.IOTime, want)
	}
	if pl.Est.CPUTime <= 0 {
		t.Fatal("CPU estimate missing")
	}
}

func TestGroupByCardinality(t *testing.T) {
	o, layout, _ := fixture()
	q := &plan.Query{
		Name:    "grp",
		Tables:  []string{"big"},
		GroupBy: []plan.ColRef{{Table: "big", Column: "grp"}},
		Aggs:    []plan.Agg{{Func: Sum(), Table: "big", Column: "val"}},
	}
	pl, err := o.Plan(q, layout)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Est.Rows != 50 {
		t.Fatalf("grouped rows = %g, want NDV(grp)=50", pl.Est.Rows)
	}
}

// Sum avoids an import cycle on the plan constant in the test above.
func Sum() plan.AggFunc { return plan.Sum }

func TestLimitCapsEstimate(t *testing.T) {
	o, layout, _ := fixture()
	q := &plan.Query{Name: "lim", Tables: []string{"big"}, Limit: 5}
	pl, err := o.Plan(q, layout)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Est.Rows != 5 {
		t.Fatalf("limited rows = %g, want 5", pl.Est.Rows)
	}
	if _, ok := pl.Root.(*plan.LimitNode); !ok {
		t.Fatalf("root should be LimitNode, got %T", pl.Root)
	}
}

func TestPlanErrors(t *testing.T) {
	o, layout, ids := fixture()
	if _, err := o.Plan(&plan.Query{Name: "bad", Tables: []string{"nope"}}, layout); err == nil {
		t.Error("unknown table should fail")
	}
	// Disconnected join graph.
	q := &plan.Query{Name: "cross", Tables: []string{"big", "small"}}
	if _, err := o.Plan(q, layout); err == nil {
		t.Error("cross join should fail")
	}
	// Object missing from layout.
	short := catalog.Layout{ids["big"]: device.HSSD}
	if _, err := o.Plan(&plan.Query{Name: "b", Tables: []string{"big"}}, short); err == nil {
		t.Error("layout missing the index should fail")
	}
	// Layout referencing a class absent from the box.
	bad := uniform(ids, device.HDD) // Box 1 has no plain HDD
	if _, err := o.Plan(&plan.Query{Name: "b", Tables: []string{"big"}}, bad); err == nil {
		t.Error("class absent from box should fail")
	}
}

func TestSelectivityFunctions(t *testing.T) {
	st := &ColStats{NDV: 100, Min: types.NewInt(0), Max: types.NewInt(999), HasRange: true}
	if got := st.eqSelectivity(); got != 0.01 {
		t.Errorf("eq selectivity = %g, want 0.01", got)
	}
	if got := st.rangeFraction(types.NewInt(0), types.NewInt(499)); got < 0.49 || got > 0.51 {
		t.Errorf("range fraction = %g, want ~0.5", got)
	}
	if got := st.rangeFraction(types.NewInt(-100), types.NewInt(2000)); got != 1 {
		t.Errorf("overflowing range should clamp to 1, got %g", got)
	}
	if got := st.rangeFraction(types.NewInt(500), types.NewInt(400)); got != 0 {
		t.Errorf("empty range should be 0, got %g", got)
	}
	noRange := &ColStats{NDV: 10}
	if got := noRange.rangeFraction(types.NewInt(1), types.NewInt(2)); got != -1 {
		t.Errorf("no-stats range should be -1 (unknown), got %g", got)
	}
	ti := &TableInfo{Name: "t", Rows: 1000, Cols: map[string]*ColStats{}}
	if s := ti.Col("missing"); s.NDV != 200 {
		t.Errorf("default NDV = %g, want 200", s.NDV)
	}
}

func TestPredSelDefaults(t *testing.T) {
	ti := &TableInfo{Name: "t", Rows: 1000, Cols: map[string]*ColStats{
		"s": {NDV: 4}, // no range stats: string-ish column
	}}
	if got := predSel(ti, plan.Pred{Column: "s", Op: plan.Lt, Lo: types.NewString("x")}); got != defaultRangeSel {
		t.Errorf("Lt without range stats = %g, want default %g", got, defaultRangeSel)
	}
	if got := predSel(ti, plan.Pred{Column: "s", Op: plan.Between, Lo: types.NewString("a"), Hi: types.NewString("b")}); got != defaultBetweenSel {
		t.Errorf("Between without range stats = %g, want default %g", got, defaultBetweenSel)
	}
	if got := predSel(ti, plan.Pred{Column: "s", Op: plan.Eq, Lo: types.NewString("a")}); got != 0.25 {
		t.Errorf("Eq = %g, want 1/NDV = 0.25", got)
	}
}

// TestPredSelCountsIntegerRange: an integer or date range is a count of
// values, so BETWEEN x AND x on a column holding each of 1..n once matches
// one row in n, where the span's width (zero) would price it at nothing.
// A float range keeps the continuous width, and Lt is priced as Le.
func TestPredSelCountsIntegerRange(t *testing.T) {
	const n = 500
	ti := &TableInfo{Name: "t", Rows: n, Cols: map[string]*ColStats{
		"i": {NDV: n, Min: types.NewInt(1), Max: types.NewInt(n), HasRange: true},
		"d": {NDV: n, Min: types.NewDate(1), Max: types.NewDate(n), HasRange: true},
		"f": {NDV: n, Min: types.NewFloat(0), Max: types.NewFloat(n), HasRange: true},
	}}
	sel := func(col string, op plan.CmpOp, lo, hi types.Value) float64 {
		return predSel(ti, plan.Pred{Column: col, Op: op, Lo: lo, Hi: hi})
	}
	for _, x := range []int64{1, 2, 250, n} {
		if got := sel("i", plan.Between, types.NewInt(x), types.NewInt(x)); got != 1.0/n {
			t.Errorf("int BETWEEN %d AND %d = %g, want 1/%d", x, x, got, n)
		}
		if got := sel("d", plan.Between, types.NewDate(x), types.NewDate(x)); got != 1.0/n {
			t.Errorf("date BETWEEN %d AND %d = %g, want 1/%d", x, x, got, n)
		}
	}
	if got := sel("i", plan.Between, types.NewInt(11), types.NewInt(20)); got != 10.0/n {
		t.Errorf("int BETWEEN 11 AND 20 = %g, want 10/%d", got, n)
	}
	if got := sel("i", plan.Between, types.NewFloat(2.5), types.NewFloat(4.5)); got != 2.0/n {
		t.Errorf("int BETWEEN 2.5 AND 4.5 = %g, want 2/%d (3 and 4)", got, n)
	}
	if got := sel("i", plan.Between, types.NewFloat(2.2), types.NewFloat(2.8)); got != 0 {
		t.Errorf("int BETWEEN 2.2 AND 2.8 = %g, want 0 (no integer inside)", got)
	}
	if lt, le := sel("i", plan.Lt, types.NewInt(100), types.Value{}), sel("i", plan.Le, types.NewInt(100), types.Value{}); lt != le || le != 100.0/n {
		t.Errorf("int < 100 = %g, <= 100 = %g, want both 100/%d", lt, le, n)
	}
	if got := sel("i", plan.Ge, types.NewInt(n), types.Value{}); got != 1.0/n {
		t.Errorf("int >= %d = %g, want 1/%d", n, got, n)
	}
	if got := sel("f", plan.Between, types.NewFloat(100), types.NewFloat(350)); got != 0.5 {
		t.Errorf("float BETWEEN 100 AND 350 = %g, want the span's half", got)
	}
	if got := sel("f", plan.Between, types.NewFloat(7), types.NewFloat(7)); got != minSelectivity {
		t.Errorf("float BETWEEN 7 AND 7 = %g, want the floor %g", got, minSelectivity)
	}
}

func TestConcurrencyAffectsEstimates(t *testing.T) {
	o1, layout, _ := fixture()
	o300, _, _ := fixture()
	o300.Concurrency = 300
	q := &plan.Query{Name: "scan", Tables: []string{"big"}, Aggs: []plan.Agg{{Func: plan.Count}}}
	p1, err := o1.Plan(q, layout)
	if err != nil {
		t.Fatal(err)
	}
	p300, err := o300.Plan(q, layout)
	if err != nil {
		t.Fatal(err)
	}
	// H-SSD sequential reads get faster at high concurrency (Table 1:
	// 0.016 -> 0.013 ms), so the c=300 estimate must be lower.
	if p300.Est.IOTime >= p1.Est.IOTime {
		t.Fatalf("IO estimate at c=300 (%v) should be below c=1 (%v) on H-SSD", p300.Est.IOTime, p1.Est.IOTime)
	}
}
