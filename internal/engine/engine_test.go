package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/optimizer"
	"dotprov/internal/pagestore"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// newTestDB builds a two-table database:
//
//	item(i_id PK, i_price, i_name): 1000 rows
//	orders(o_id PK, o_item, o_qty): 5000 rows, o_item -> item.i_id
func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New(device.Box1(), 256)
	itemSchema := types.NewSchema(
		types.Column{Name: "i_id", Kind: types.KindInt},
		types.Column{Name: "i_price", Kind: types.KindFloat},
		types.Column{Name: "i_name", Kind: types.KindString},
	)
	if _, err := db.CreateTable("item", itemSchema, []string{"i_id"}); err != nil {
		t.Fatal(err)
	}
	orderSchema := types.NewSchema(
		types.Column{Name: "o_id", Kind: types.KindInt},
		types.Column{Name: "o_item", Kind: types.KindInt},
		types.Column{Name: "o_qty", Kind: types.KindInt},
	)
	if _, err := db.CreateTable("orders", orderSchema, []string{"o_id"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		err := db.Load("item", types.Tuple{
			types.NewInt(int64(i)),
			types.NewFloat(float64(i) * 1.5),
			types.NewString("item-name-padding-padding"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		err := db.Load("orders", types.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 1000)),
			types.NewInt(int64(i%10 + 1)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	db.ClearPool()
	return db
}

// planner returns db's optimizer, failing t while its statistics are not
// current.
func planner(t *testing.T, db *DB) *optimizer.Optimizer {
	t.Helper()
	opt, err := db.Planner()
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

func TestCreateTableMakesPKIndex(t *testing.T) {
	db := newTestDB(t)
	ix, err := db.Cat.IndexByName("item_pkey")
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Unique || ix.Columns[0] != "i_id" {
		t.Fatalf("pk index metadata wrong: %+v", ix)
	}
	if db.Tree(ix.ID) == nil {
		t.Fatal("pk tree missing")
	}
	if db.Tree(ix.ID).Len() != 1000 {
		t.Fatalf("pk entries = %d, want 1000", db.Tree(ix.ID).Len())
	}
}

func TestAnalyzeStats(t *testing.T) {
	db := newTestDB(t)
	ti := planner(t, db).Tables["orders"]
	if ti == nil {
		t.Fatal("no stats for orders")
	}
	if ti.Rows != 5000 {
		t.Fatalf("orders rows = %g, want 5000", ti.Rows)
	}
	if got := ti.Col("o_item").NDV; got != 1000 {
		t.Fatalf("NDV(o_item) = %g, want 1000", got)
	}
	st := ti.Col("o_qty")
	if !st.HasRange || st.Min.Int != 1 || st.Max.Int != 10 {
		t.Fatalf("o_qty range = %+v", st)
	}
	// Sizes flow into the catalog.
	tab, _ := db.Cat.TableByName("orders")
	if tab.SizeBytes == 0 {
		t.Fatal("catalog size not refreshed by Analyze")
	}
}

// TestAnalyzeStatsAcrossTables checks every column's NDV and range after one
// Analyze over four tables against a brute-force count of the rows loaded.
// The tables share column positions, a later table's values are disjoint
// from an earlier one's at the same position, their widths differ, and the
// last is empty — so statistics that leak from one table into the next
// (a distinct set, a running min or max) cannot go unnoticed.
func TestAnalyzeStatsAcrossTables(t *testing.T) {
	type table struct {
		name string
		cols []types.Column
		rows []types.Tuple
	}
	col := func(name string, k types.Kind) types.Column { return types.Column{Name: name, Kind: k} }
	a := table{name: "a", cols: []types.Column{
		col("a0", types.KindInt), col("a1", types.KindInt), col("a2", types.KindString),
		col("a3", types.KindFloat), col("a4", types.KindDate),
	}}
	for i := 0; i < 900; i++ {
		a.rows = append(a.rows, types.Tuple{
			types.NewInt(int64(i)), types.NewInt(int64(i % 300)),
			types.NewString(fmt.Sprintf("a-%d", i%170)),
			types.NewFloat(float64(i%40) - 19.5), types.NewDate(int64(9000 + i%65)),
		})
	}
	b := table{name: "b", cols: []types.Column{
		col("b0", types.KindInt), col("b1", types.KindInt), col("b2", types.KindString),
	}}
	for i := 0; i < 400; i++ {
		b.rows = append(b.rows, types.Tuple{
			types.NewInt(int64(5000 + i)), types.NewInt(int64(1000 + i%7)),
			types.NewString(fmt.Sprintf("b-%d", i%13)),
		})
	}
	c := table{name: "c", cols: []types.Column{
		col("c0", types.KindInt), col("c1", types.KindFloat), col("c2", types.KindString),
		col("c3", types.KindInt),
	}}
	for i := 0; i < 250; i++ {
		c.rows = append(c.rows, types.Tuple{
			types.NewInt(int64(-i)), types.NewFloat(float64(i%11) * 0.25),
			types.NewString(fmt.Sprintf("c-%d", i%3)), types.NewInt(int64(i % 2)),
		})
	}
	empty := table{name: "empty", cols: []types.Column{
		col("e0", types.KindInt), col("e1", types.KindInt), col("e2", types.KindString),
	}}
	tables := []table{a, b, c, empty}

	db := New(device.Box1(), 64)
	for _, tab := range tables {
		if _, err := db.CreateTable(tab.name, types.NewSchema(tab.cols...), []string{tab.cols[0].Name}); err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.rows {
			if err := db.Load(tab.name, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		ti := planner(t, db).Tables[tab.name]
		if ti == nil {
			t.Fatalf("no stats for %s", tab.name)
		}
		if ti.Rows != float64(len(tab.rows)) {
			t.Fatalf("%s rows = %g, want %d", tab.name, ti.Rows, len(tab.rows))
		}
		for i, cl := range tab.cols {
			distinct := map[string]bool{}
			var lo, hi types.Value
			for r, row := range tab.rows {
				v := row[i]
				distinct[string(types.EncodeKey(nil, v))] = true
				if r == 0 || types.Compare(v, lo) < 0 {
					lo = v
				}
				if r == 0 || types.Compare(v, hi) > 0 {
					hi = v
				}
			}
			ndv := float64(len(distinct))
			if ndv < 1 {
				ndv = 1
			}
			hasRange := len(tab.rows) > 0 && cl.Kind != types.KindString
			st := ti.Col(cl.Name)
			if st == nil {
				t.Fatalf("%s.%s: no column stats", tab.name, cl.Name)
			}
			if st.NDV != ndv {
				t.Errorf("%s.%s: NDV = %g, want %g", tab.name, cl.Name, st.NDV, ndv)
			}
			if st.HasRange != hasRange {
				t.Errorf("%s.%s: HasRange = %v, want %v", tab.name, cl.Name, st.HasRange, hasRange)
				continue
			}
			if hasRange && (!types.Equal(st.Min, lo) || !types.Equal(st.Max, hi)) {
				t.Errorf("%s.%s: range [%v, %v], want [%v, %v]", tab.name, cl.Name, st.Min, st.Max, lo, hi)
			}
		}
	}
}

func TestPointQueryExecution(t *testing.T) {
	db := newTestDB(t)
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	q := &plan.Query{
		Name:   "point",
		Tables: []string{"item"},
		Preds:  []plan.Pred{{Table: "item", Column: "i_id", Op: plan.Eq, Lo: types.NewInt(77)}},
	}
	res, err := sess.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 {
		t.Fatalf("point query rows = %d, want 1", res.Rows)
	}
	if got := res.Tuples[0][0].Int; got != 77 {
		t.Fatalf("wrong row: id=%d", got)
	}
	if sess.Acct().Now() == 0 {
		t.Fatal("execution should consume virtual time")
	}
}

func TestCountStarMatchesRowCount(t *testing.T) {
	db := newTestDB(t)
	sess, _ := db.NewSession()
	q := &plan.Query{
		Name:   "count",
		Tables: []string{"orders"},
		Aggs:   []plan.Agg{{Func: plan.Count}},
	}
	res, err := sess.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 || res.Tuples[0][0].Int != 5000 {
		t.Fatalf("count(*) = %v, want 5000", res.Tuples[0])
	}
}

func TestJoinExecutionCorrectness(t *testing.T) {
	db := newTestDB(t)
	sess, _ := db.NewSession()
	// Orders of items 0..9: 5 orders per item -> 50 rows; sum of qty known.
	q := &plan.Query{
		Name:   "join",
		Tables: []string{"orders", "item"},
		Preds: []plan.Pred{{
			Table: "item", Column: "i_id", Op: plan.Lt, Lo: types.NewInt(10),
		}},
		Joins: []plan.EquiJoin{{
			LeftTable: "orders", LeftColumn: "o_item",
			RightTable: "item", RightColumn: "i_id",
		}},
		Aggs: []plan.Agg{{Func: plan.Count}},
	}
	res, err := sess.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0][0].Int != 50 {
		t.Fatalf("join count = %d, want 50 (5 orders x 10 items)", res.Tuples[0][0].Int)
	}
}

func TestJoinResultIndependentOfLayout(t *testing.T) {
	// Plans may change with the layout; answers must not.
	db := newTestDB(t)
	q := &plan.Query{
		Name:   "join",
		Tables: []string{"orders", "item"},
		Preds: []plan.Pred{{
			Table: "orders", Column: "o_id", Op: plan.Between,
			Lo: types.NewInt(0), Hi: types.NewInt(99),
		}},
		Joins: []plan.EquiJoin{{
			LeftTable: "orders", LeftColumn: "o_item",
			RightTable: "item", RightColumn: "i_id",
		}},
		Aggs: []plan.Agg{{Func: plan.Sum, Table: "orders", Column: "o_qty"}},
	}
	var want float64
	for _, cls := range []device.Class{device.HSSD, device.HDDRAID0, device.LSSD} {
		if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, cls)); err != nil {
			t.Fatal(err)
		}
		db.ClearPool()
		sess, _ := db.NewSession()
		res, err := sess.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Tuples[0][0].F
		if cls == device.HSSD {
			want = got
			if want <= 0 {
				t.Fatalf("sum should be positive, got %g", want)
			}
		} else if got != want {
			t.Fatalf("layout %v changed the answer: %g vs %g", cls, got, want)
		}
	}
}

func TestGroupByExecution(t *testing.T) {
	db := newTestDB(t)
	sess, _ := db.NewSession()
	q := &plan.Query{
		Name:    "grp",
		Tables:  []string{"orders"},
		GroupBy: []plan.ColRef{{Table: "orders", Column: "o_qty"}},
		Aggs:    []plan.Agg{{Func: plan.Count}},
	}
	res, err := sess.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 10 {
		t.Fatalf("groups = %d, want 10", res.Rows)
	}
	for _, tu := range res.Tuples {
		if tu[1].Int != 500 {
			t.Fatalf("each qty group should have 500 orders, got %v", tu)
		}
	}
}

func TestExecutionTimeTracksLayout(t *testing.T) {
	// The same scan must be slower on the HDD RAID 0 than on the H-SSD.
	db := newTestDB(t)
	q := &plan.Query{
		Name:   "scan",
		Tables: []string{"orders"},
		Aggs:   []plan.Agg{{Func: plan.Count}},
	}
	elapsed := func(cls device.Class) time.Duration {
		if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, cls)); err != nil {
			t.Fatal(err)
		}
		db.ClearPool()
		sess, _ := db.NewSession()
		if _, err := sess.Run(q); err != nil {
			t.Fatal(err)
		}
		return sess.Acct().IOTime()
	}
	ssd := elapsed(device.HSSD)
	hdd := elapsed(device.HDDRAID0)
	if hdd <= ssd {
		t.Fatalf("HDD RAID0 scan (%v) should be slower than H-SSD (%v)", hdd, ssd)
	}
	// SR ratio from Table 1 is 0.049/0.016 ~ 3.06; CPU is excluded here so
	// the ratio should be close.
	ratio := float64(hdd) / float64(ssd)
	if ratio < 2.5 || ratio > 3.7 {
		t.Fatalf("SR ratio = %.2f, want ~3.06", ratio)
	}
}

func TestLookupEqAndUpdate(t *testing.T) {
	db := newTestDB(t)
	sess, _ := db.NewSession()
	tuples, rids, err := sess.LookupEq("item_pkey", types.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0][0].Int != 5 {
		t.Fatalf("LookupEq = %v", tuples)
	}
	newTu := tuples[0].Clone()
	newTu[1] = types.NewFloat(99.5)
	if err := sess.UpdateByRID("item", rids[0], newTu); err != nil {
		t.Fatal(err)
	}
	tuples2, _, err := sess.LookupEq("item_pkey", types.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if tuples2[0][1].F != 99.5 {
		t.Fatalf("update not visible: %v", tuples2[0])
	}
	// Non-key update must not charge index writes.
	prof := sess.Acct().Profile()
	ix, _ := db.Cat.IndexByName("item_pkey")
	if prof.Get(ix.ID)[device.RandWrite] != 0 {
		t.Fatal("non-key update should not write the index")
	}
	tab, _ := db.Cat.TableByName("item")
	if prof.Get(tab.ID)[device.RandWrite] != 1 {
		t.Fatalf("update should charge 1 RW on the table, got %g", prof.Get(tab.ID)[device.RandWrite])
	}
}

func TestKeyUpdateMaintainsIndex(t *testing.T) {
	db := newTestDB(t)
	sess, _ := db.NewSession()
	tuples, rids, err := sess.LookupEq("item_pkey", types.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	newTu := tuples[0].Clone()
	newTu[0] = types.NewInt(100007)
	if err := sess.UpdateByRID("item", rids[0], newTu); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := sess.LookupEq("item_pkey", types.NewInt(7)); len(got) != 0 {
		t.Fatal("old key still in index")
	}
	got, _, err := sess.LookupEq("item_pkey", types.NewInt(100007))
	if err != nil || len(got) != 1 {
		t.Fatalf("new key not in index: %v %v", got, err)
	}
}

func TestInsertAndDelete(t *testing.T) {
	db := newTestDB(t)
	sess, _ := db.NewSession()
	if err := sess.Insert("item", types.Tuple{
		types.NewInt(5000), types.NewFloat(1), types.NewString("new"),
	}); err != nil {
		t.Fatal(err)
	}
	tuples, rids, err := sess.LookupEq("item_pkey", types.NewInt(5000))
	if err != nil || len(tuples) != 1 {
		t.Fatalf("inserted row not found: %v %v", tuples, err)
	}
	tab, _ := db.Cat.TableByName("item")
	if got := sess.Acct().Profile().Get(tab.ID)[device.SeqWrite]; got != 1 {
		t.Fatalf("insert should charge 1 SW on the table, got %g", got)
	}
	if err := sess.DeleteByRID("item", rids[0]); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := sess.LookupEq("item_pkey", types.NewInt(5000)); len(got) != 0 {
		t.Fatal("deleted row still visible")
	}
}

// TestWritesRejectWrongKinds: a value whose kind differs from its column's
// is refused by every write path, with an error naming the column, and
// leaves the table as it was.
func TestWritesRejectWrongKinds(t *testing.T) {
	db := newTestDB(t)
	tab, _ := db.Cat.TableByName("item")
	pages := db.heaps[tab.ID].NumPages()
	bad := types.Tuple{types.NewInt(5000), types.NewString("1.5"), types.NewString("new")}
	if err := db.Load("item", bad); err == nil || !strings.Contains(err.Error(), "i_price") {
		t.Fatalf("Load of a STRING into FLOAT i_price: err = %v, want one naming i_price", err)
	}
	sess, _ := db.NewSession()
	if err := sess.Insert("item", bad); err == nil || !strings.Contains(err.Error(), "i_price") {
		t.Fatalf("Insert of a STRING into FLOAT i_price: err = %v, want one naming i_price", err)
	}
	if got, _, _ := sess.LookupEq("item_pkey", types.NewInt(5000)); len(got) != 0 {
		t.Fatal("a refused row reached the index")
	}
	if db.heaps[tab.ID].NumPages() != pages {
		t.Fatal("a refused row reached the heap")
	}
	tuples, rids, err := sess.LookupEq("item_pkey", types.NewInt(7))
	if err != nil || len(tuples) != 1 {
		t.Fatalf("lookup: %v %v", tuples, err)
	}
	upd := tuples[0].Clone()
	upd[0] = types.NewFloat(7)
	if err := sess.UpdateByRID("item", rids[0], upd); err == nil || !strings.Contains(err.Error(), "i_id") {
		t.Fatalf("update of a FLOAT into INT i_id: err = %v, want one naming i_id", err)
	}
	if got, _, _ := sess.LookupEq("item_pkey", types.NewInt(7)); len(got) != 1 || got[0][0].Kind != types.KindInt {
		t.Fatalf("a refused update changed the row: %v", got)
	}
}

func TestLookupEqPrefix(t *testing.T) {
	db := New(device.Box1(), 64)
	sch := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
	)
	if _, err := db.CreateTable("t", sch, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 5; a++ {
		for b := 0; b < 4; b++ {
			if err := db.Load("t", types.Tuple{
				types.NewInt(int64(a)), types.NewInt(int64(b)), types.NewInt(int64(a*10 + b)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD))
	db.Analyze()
	sess, _ := db.NewSession()
	tuples, _, err := sess.LookupEq("t_pkey", types.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 4 {
		t.Fatalf("prefix lookup returned %d rows, want 4", len(tuples))
	}
	for _, tu := range tuples {
		if tu[0].Int != 3 {
			t.Fatalf("prefix lookup leaked row %v", tu)
		}
	}

	// A prefix is a prefix whatever the later columns hold: a string of ten
	// 0xFF bytes sorts above any fixed padding of the prefix.
	sch = types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	)
	if _, err := db.CreateTable("u", sch, []string{"k", "s"}); err != nil {
		t.Fatal(err)
	}
	high := strings.Repeat("\xff", 10)
	for _, row := range []struct {
		k int64
		s string
	}{{1, "a"}, {1, high}, {2, ""}, {0, high}} {
		if err := db.Load("u", types.Tuple{types.NewInt(row.k), types.NewString(row.s)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	sess, _ = db.NewSession()
	tuples, _, err = sess.LookupEq("u_pkey", types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 || tuples[0][1].Str != "a" || tuples[1][1].Str != high {
		t.Fatalf("prefix lookup on k = 1 returned %v, want the rows (1, a) and (1, ten 0xFF bytes)", tuples)
	}
}

func TestSetLayoutValidation(t *testing.T) {
	db := newTestDB(t)
	// Missing object.
	l := db.Layout()
	tab, _ := db.Cat.TableByName("item")
	delete(l, tab.ID)
	if err := db.SetLayout(l); err == nil {
		t.Fatal("partial layout should be rejected")
	}
	// Class not in box.
	l2 := catalog.NewUniformLayout(db.Cat, device.HDD) // Box 1 lacks plain HDD
	if err := db.SetLayout(l2); err == nil {
		t.Fatal("class absent from box should be rejected")
	}
	// Unknown object.
	l3 := db.Layout()
	l3[9999] = device.HSSD
	if err := db.SetLayout(l3); err == nil {
		t.Fatal("unknown object should be rejected")
	}
}

func TestPlanRequiresAnalyze(t *testing.T) {
	db := New(device.Box1(), 64)
	sch := types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})
	if _, err := db.CreateTable("t", sch, nil); err != nil {
		t.Fatal(err)
	}
	db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD))
	if _, err := db.Plan(&plan.Query{Name: "q", Tables: []string{"t"}}); err == nil {
		t.Fatal("planning before Analyze should fail")
	}
}

// TestPlanRefusesAfterWrites: every write to the stored data — a session's
// insert, update or delete, a table created without a primary key, an
// index — changes what the statistics describe, so planning refuses after
// each until Analyze runs again.
func TestPlanRefusesAfterWrites(t *testing.T) {
	db := newTestDB(t)
	q := &plan.Query{Name: "q", Tables: []string{"item"}, Aggs: []plan.Agg{{Func: plan.Count}}}
	sess, _ := db.NewSession()
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"insert", func() error {
			return sess.Insert("item", types.Tuple{types.NewInt(5000), types.NewFloat(1), types.NewString("new")})
		}},
		{"update", func() error {
			tuples, rids, err := sess.LookupEq("item_pkey", types.NewInt(5))
			if err != nil {
				return err
			}
			tu := tuples[0].Clone()
			tu[1] = types.NewFloat(99.5)
			return sess.UpdateByRID("item", rids[0], tu)
		}},
		{"delete", func() error {
			_, rids, err := sess.LookupEq("item_pkey", types.NewInt(6))
			if err != nil {
				return err
			}
			return sess.DeleteByRID("item", rids[0])
		}},
		{"create table", func() error {
			_, err := db.CreateTable("more", types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}), nil)
			return err
		}},
		{"create index", func() error {
			_, err := db.CreateIndex("orders_item", "orders", []string{"o_item"}, false)
			return err
		}},
	} {
		if _, err := db.Plan(q); err != nil {
			t.Fatalf("before the %s: %v", w.name, err)
		}
		if err := w.write(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Plan(q); err == nil {
			t.Errorf("planning after the %s answered from the statistics it changed", w.name)
		}
		if err := db.Analyze(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Plan(q); err != nil {
		t.Fatalf("after Analyze: %v", err)
	}
}

func TestInsertArityChecked(t *testing.T) {
	db := newTestDB(t)
	sess, _ := db.NewSession()
	if err := sess.Insert("item", types.Tuple{types.NewInt(1)}); err == nil {
		t.Fatal("short tuple should be rejected")
	}
	if err := sess.UpdateByRID("item", pagestore.RID{}, types.Tuple{types.NewInt(1)}); err == nil {
		t.Fatal("short update tuple should be rejected")
	}
}

func TestEstimateVsActualIOWithinFactor(t *testing.T) {
	// The validation phase (paper Fig. 2) relies on estimates tracking
	// reality. For a cold full scan the SR count should match exactly.
	db := newTestDB(t)
	q := &plan.Query{Name: "scan", Tables: []string{"orders"}, Aggs: []plan.Agg{{Func: plan.Count}}}
	pl, err := db.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	db.ClearPool()
	sess, _ := db.NewSession()
	if _, err := sess.RunPlan(pl); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Cat.TableByName("orders")
	est := pl.Est.Profile.Get(tab.ID)[device.SeqRead]
	act := sess.Acct().Profile().Get(tab.ID)[device.SeqRead]
	if est != act {
		t.Fatalf("estimated %g SR pages, actual %g", est, act)
	}
}
