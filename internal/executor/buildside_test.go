package executor_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/executor"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// chunkSizes are the build-side sizes TestHashJoinAcrossChunks joins
// against: empty, one row, and one chunk less one, exactly one and one more,
// then three chunks and part of a fourth.
var chunkSizes = []int{0, 1, executor.ChunkRows - 1, executor.ChunkRows, executor.ChunkRows + 1, 3*executor.ChunkRows + 7}

var chunkCols = []string{"id", "ik", "jk", "sk", "tk"}

// chunkDB loads an outer table o of 400 rows and, per size in chunkSizes, a
// build table b<size> of that many rows, all of shape (id, ik INT, jk INT,
// sk STRING, tk STRING). In a build table, ik and sk hold runs of three
// rows per key, so a run crosses every chunk boundary, over as many
// distinct keys as a third of the rows; jk and tk cycle through 50 keys, so
// each key recurs in every chunk. o's keys reach past the build tables',
// in scrambled order, so some outer rows meet nothing.
func chunkDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(device.Box1(), 1024)
	sch := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "ik", Kind: types.KindInt},
		types.Column{Name: "jk", Kind: types.KindInt},
		types.Column{Name: "sk", Kind: types.KindString},
		types.Column{Name: "tk", Kind: types.KindString},
	)
	load := func(name string, rows int, row func(i int) types.Tuple) {
		if _, err := db.CreateTable(name, sch, []string{"id"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := db.Load(name, row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	load("o", 400, func(o int) types.Tuple {
		k := (o * 7) % 300
		return types.Tuple{types.NewInt(int64(o)), types.NewInt(int64(k)), types.NewInt(int64(o % 60)),
			types.NewString(fmt.Sprintf("run-%d", k)), types.NewString(fmt.Sprintf("m\x00%d", o%60))}
	})
	for _, n := range chunkSizes {
		load(fmt.Sprintf("b%d", n), n, func(i int) types.Tuple {
			return types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i / 3)), types.NewInt(int64(i % 50)),
				types.NewString(fmt.Sprintf("run-%d", i/3)), types.NewString(fmt.Sprintf("m\x00%d", i%50))}
		})
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	return db
}

func chunkScan(t *testing.T, db *engine.DB, table string) *plan.SeqScan {
	var cols []plan.ColRef
	for _, c := range chunkCols {
		cols = append(cols, plan.ColRef{Table: table, Column: c})
	}
	return &plan.SeqScan{Table: table, TableID: tableID(t, db, table), Cols: cols}
}

// TestHashJoinAcrossChunks joins o against build sides on both sides of
// every chunk boundary, on numeric and string keys, and requires exactly
// the pairs a nested loop over types.EncodeKey bytes finds, in its order:
// outer rows in scan order, each with its build rows in arrival order. The
// sizes run twice, so the second pass builds in storage that larger build
// sides have filled.
func TestHashJoinAcrossChunks(t *testing.T) {
	db := chunkDB(t)
	outer := runNode(t, db, chunkScan(t, db, "o")).Tuples
	for pass := 0; pass < 2; pass++ {
		for _, n := range chunkSizes {
			table := fmt.Sprintf("b%d", n)
			inner := runNode(t, db, chunkScan(t, db, table)).Tuples
			if len(inner) != n {
				t.Fatalf("%s holds %d rows, want %d", table, len(inner), n)
			}
			for k := 1; k < len(chunkCols); k++ {
				col := chunkCols[k]
				var want [][2]int64
				for _, l := range outer {
					for _, r := range inner {
						if bytes.Equal(types.EncodeKey(nil, l[k]), types.EncodeKey(nil, r[k])) {
							want = append(want, [2]int64{l[0].Int, r[0].Int})
						}
					}
				}
				res := runNode(t, db, &plan.Join{
					Algo:  plan.HashJoin,
					Outer: chunkScan(t, db, "o"), OuterCol: plan.ColRef{Table: "o", Column: col},
					Inner: chunkScan(t, db, table), InnerCol: plan.ColRef{Table: table, Column: col},
				})
				var got [][2]int64
				for _, tu := range res.Tuples {
					got = append(got, [2]int64{tu[0].Int, tu[len(chunkCols)].Int})
				}
				name := fmt.Sprintf("pass %d: o.%s = %s.%s", pass, col, table, col)
				if n > 0 && len(want) == 0 {
					t.Fatalf("%s: the fixture pairs no rows", name)
				}
				if res.Rows != int64(len(want)) || len(want) > executor.MaxResultTuples {
					t.Fatalf("%s: %d rows, the nested loop finds %d (result cap %d)", name, res.Rows, len(want), executor.MaxResultTuples)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: hash join paired\n  %v\nEncodeKey equality pairs\n  %v", name, got, want)
				}
			}
		}
	}
}

// TestAnalyzeKeyEdgeValues: over keyDB's edge values, Analyze counts a
// column's distinct values as types.EncodeKey does — an int and a date of
// the same day number are one value, -0 and +0 two, NaN one, and strings
// around 0x00 each their own — and ranges each numeric column from its
// least to its greatest encoding. Analyze ranges with types.Compare, under
// which NaN is unordered, so the oracle leaves NaN out of the range (keyDB
// starts no column with it).
func TestAnalyzeKeyEdgeValues(t *testing.T) {
	db := keyDB(t)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"l", "r"} {
		rows := runNode(t, db, keyScan(t, db, table)).Tuples
		opt, err := db.Planner()
		if err != nil {
			t.Fatal(err)
		}
		ti := opt.Tables[table]
		if ti == nil {
			t.Fatalf("no statistics for %s", table)
		}
		for i, col := range []string{"id", "ik", "dk", "fk", "sk"} {
			distinct := map[string]bool{}
			var lo, hi []byte
			for _, r := range rows {
				k := types.EncodeKey(nil, r[i])
				distinct[string(k)] = true
				if v := r[i]; v.Kind == types.KindString || v.Kind == types.KindFloat && math.IsNaN(v.F) {
					continue
				}
				if lo == nil || bytes.Compare(k, lo) < 0 {
					lo = k
				}
				if hi == nil || bytes.Compare(k, hi) > 0 {
					hi = k
				}
			}
			st := ti.Cols[col]
			name := table + "." + col
			if st == nil {
				t.Fatalf("%s: no statistics", name)
			}
			if st.NDV != float64(len(distinct)) {
				t.Errorf("%s: NDV %g, EncodeKey finds %d distinct values", name, st.NDV, len(distinct))
			}
			if st.HasRange != (lo != nil) {
				t.Fatalf("%s: HasRange %v, want %v", name, st.HasRange, lo != nil)
			}
			if lo == nil {
				continue
			}
			if !bytes.Equal(types.EncodeKey(nil, st.Min), lo) || !bytes.Equal(types.EncodeKey(nil, st.Max), hi) {
				t.Errorf("%s: range [%v, %v], want [%x, %x] by EncodeKey", name, st.Min, st.Max, lo, hi)
			}
		}
	}
}
