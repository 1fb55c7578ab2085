package executor_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/executor"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// keyDB loads two tables of the same shape, l and r (id, ik INT, dk DATE,
// fk FLOAT, sk STRING), whose key columns cycle through the values a hash
// join must tell apart — or must not: int and date day numbers, an int
// whose key bytes are those of the float 1.0, ±0, ±Inf and NaN, and
// strings around 0x00.
func keyDB(t *testing.T) *engine.DB {
	t.Helper()
	ints := []int64{0, 1, -1, 5, math.MinInt64, math.MaxInt64, 0x3ff0000000000000}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 5, math.Inf(1), math.Inf(-1), math.NaN()}
	strs := []string{"", "a", "a\x00", "a\x00b", "\x00", "a\x00\x01", "ab", "\x00\xff"}
	db := engine.New(device.Box1(), 512)
	for _, tab := range []struct {
		name string
		rows int
		step int
	}{{"l", 40, 1}, {"r", 56, 3}} {
		sch := types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt},
			types.Column{Name: "ik", Kind: types.KindInt},
			types.Column{Name: "dk", Kind: types.KindDate},
			types.Column{Name: "fk", Kind: types.KindFloat},
			types.Column{Name: "sk", Kind: types.KindString},
		)
		if _, err := db.CreateTable(tab.name, sch, []string{"id"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tab.rows; i++ {
			j := i * tab.step
			row := types.Tuple{types.NewInt(int64(i)), types.NewInt(ints[j%len(ints)]),
				types.NewDate(ints[(j+2)%len(ints)]), types.NewFloat(floats[j%len(floats)]),
				types.NewString(strs[j%len(strs)])}
			if err := db.Load(tab.name, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	return db
}

func keyScan(t *testing.T, db *engine.DB, table string) *plan.SeqScan {
	var cols []plan.ColRef
	for _, c := range []string{"id", "ik", "dk", "fk", "sk"} {
		cols = append(cols, plan.ColRef{Table: table, Column: c})
	}
	return &plan.SeqScan{Table: table, TableID: tableID(t, db, table), Cols: cols}
}

// TestHashJoinKeysMatchEncodeKeyEquality: a hash join keys its rows on the
// value, not on types.EncodeKey's bytes, and must still pair exactly the
// rows whose keys encode alike, in the same order — outer rows in scan
// order, each with its build rows in arrival order. So an int meets a date
// of the same day number and the one int whose key bytes are those of 1.0
// meets 1.0; -0 does not meet +0, while NaN meets a NaN of the same bits;
// strings containing 0x00 meet only themselves.
func TestHashJoinKeysMatchEncodeKeyEquality(t *testing.T) {
	db := keyDB(t)
	lRows, rRows := runNode(t, db, keyScan(t, db, "l")).Tuples, runNode(t, db, keyScan(t, db, "r")).Tuples
	pos := map[string]int{"ik": 1, "dk": 2, "fk": 3, "sk": 4}
	for _, c := range []struct{ outer, inner string }{
		{"ik", "dk"}, {"dk", "ik"}, {"fk", "fk"}, {"sk", "sk"}, {"ik", "fk"},
	} {
		var want [][2]int64
		for _, l := range lRows {
			for _, r := range rRows {
				if bytes.Equal(types.EncodeKey(nil, l[pos[c.outer]]), types.EncodeKey(nil, r[pos[c.inner]])) {
					want = append(want, [2]int64{l[0].Int, r[0].Int})
				}
			}
		}
		res := runNode(t, db, &plan.Join{
			Algo:  plan.HashJoin,
			Outer: keyScan(t, db, "l"), OuterCol: plan.ColRef{Table: "l", Column: c.outer},
			Inner: keyScan(t, db, "r"), InnerCol: plan.ColRef{Table: "r", Column: c.inner},
		})
		var got [][2]int64
		for _, tu := range res.Tuples {
			got = append(got, [2]int64{tu[0].Int, tu[5].Int})
		}
		name := fmt.Sprintf("l.%s = r.%s", c.outer, c.inner)
		if len(want) == 0 {
			t.Fatalf("%s: the fixture pairs no rows", name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: hash join paired\n  %v\nEncodeKey equality pairs\n  %v", name, got, want)
		}
	}
}

// recycleDB loads cust(k, name) with 40 rows and ord(id, ck, note) with
// 2000, every name and note a distinct string.
func recycleDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(device.Box1(), 1024)
	if _, err := db.CreateTable("cust", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
	), []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("ord", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "ck", Kind: types.KindInt},
		types.Column{Name: "note", Kind: types.KindString},
	), []string{"id"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := db.Load("cust", types.Tuple{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("customer #%02d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if err := db.Load("ord", types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 40)), types.NewString(fmt.Sprintf("order note %04d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	return db
}

var (
	custCols = []plan.ColRef{{Table: "cust", Column: "k"}, {Table: "cust", Column: "name"}}
	ordCols  = []plan.ColRef{{Table: "ord", Column: "id"}, {Table: "ord", Column: "ck"}, {Table: "ord", Column: "note"}}
	ordCK    = plan.ColRef{Table: "ord", Column: "ck"}
	custK    = plan.ColRef{Table: "cust", Column: "k"}
)

// recycleJoins returns, over recycleDB: orders joined to the customers
// built in memory (names come from the build side); orders counted per
// customer name (the aggregate's string group keys come from the build
// side); and customers joined to the orders built in memory, a build side
// of eight chunks of distinct notes.
func recycleJoins(t *testing.T, db *engine.DB) (named, perName, wide plan.Node) {
	cust := func() plan.Node { return &plan.SeqScan{Table: "cust", TableID: tableID(t, db, "cust"), Cols: custCols} }
	ord := func() plan.Node { return &plan.SeqScan{Table: "ord", TableID: tableID(t, db, "ord"), Cols: ordCols} }
	named = &plan.Join{Algo: plan.HashJoin, Outer: ord(), OuterCol: ordCK, Inner: cust(), InnerCol: custK}
	perName = &plan.AggNode{
		Input:   &plan.Join{Algo: plan.HashJoin, Outer: ord(), OuterCol: ordCK, Inner: cust(), InnerCol: custK},
		GroupBy: []plan.ColRef{{Table: "cust", Column: "name"}},
		Aggs:    []plan.Agg{{Func: plan.Count}},
	}
	wide = &plan.Join{Algo: plan.HashJoin, Outer: cust(), OuterCol: custK, Inner: ord(), InnerCol: ordCK}
	return named, perName, wide
}

func encodeRows(tuples []types.Tuple) []byte {
	var b []byte
	for _, tu := range tuples {
		b = append(types.EncodeTuple(b, tu), 0xff)
	}
	return b
}

// TestResultSurvivesRecycledBuildStorage: a hash join's chunks and key
// index go back to a pool, cleared, the moment its probe ends, and the next
// joins fill them with their own rows. A result kept past its query — the
// rows Run returned, and an aggregate's string group keys, which both came
// out of a build side — must hold none of that storage: it reads the same
// through two dozen later joins that reuse it. And the recycled storage
// holds nothing of the joins that finished, so it keeps no string alive.
func TestResultSurvivesRecycledBuildStorage(t *testing.T) {
	db := recycleDB(t)
	named, perName, wide := recycleJoins(t, db)
	kept := []*struct {
		res  []types.Tuple
		want []byte
	}{{res: runNode(t, db, named).Tuples}, {res: runNode(t, db, perName).Tuples}}
	for _, r := range kept {
		r.want = encodeRows(r.res)
	}
	if n := len(kept[1].res); n != 40 || kept[1].res[7][0].Str != "customer #07" || kept[1].res[7][1].Int != 50 {
		t.Fatalf("per-name counts: %d groups, group 7 = %v", n, kept[1].res[7])
	}
	for i := 0; i < 24; i++ {
		if res := runNode(t, db, wide); res.Rows != 2000 {
			t.Fatalf("later join %d: %d rows, want 2000", i, res.Rows)
		}
	}
	for i, r := range kept {
		if !bytes.Equal(encodeRows(r.res), r.want) {
			t.Errorf("result %d changed after later joins reused the build storage", i)
		}
	}
	if n := executor.SpareValues(db); n != 0 {
		t.Errorf("the recycled chunks still hold %d values of finished joins", n)
	}
}

// TestConcurrentJoinsShareNoStorage runs the joins of
// TestResultSurvivesRecycledBuildStorage on two sessions at once, each on
// a database of its own, as two advisor requests validating at once do (a
// database's buffer pool belongs to one goroutine at a time). Build storage
// is recycled per database, so under -race any of it the two share shows
// as a race, and every run must answer as the joins did alone.
func TestConcurrentJoinsShareNoStorage(t *testing.T) {
	var want [][]byte
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		db := recycleDB(t)
		named, perName, wide := recycleJoins(t, db)
		plans := []plan.Node{named, perName, wide}
		if want == nil {
			for _, p := range plans {
				want = append(want, encodeRows(runNode(t, db, p).Tuples))
			}
		}
		sess, err := db.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				p := (i + w) % len(plans)
				res, err := sess.RunPlan(&plan.Plan{Query: &plan.Query{Name: "concurrent"}, Root: plans[p]})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(encodeRows(res.Tuples), want[p]) {
					errs <- fmt.Errorf("session %d, run %d: join %d answered differently beside another session", w, i, p)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
