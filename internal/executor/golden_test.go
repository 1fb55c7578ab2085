package executor_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/executor"
	"dotprov/internal/plan"
	"dotprov/internal/tpch"
	"dotprov/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tpch.golden from the current implementation")

// goldenLine renders everything one execution is allowed to show the rest
// of the system: the rows it produced (count plus a digest of their
// encodings in emission order) and the session's cumulative accounting —
// virtual clock, CPU time, the per-object I/O profile — with the pool's
// cumulative hits and misses.
func goldenLine(name string, res *executor.Result, sess *engine.Session, db *engine.DB) string {
	h := sha256.New()
	var buf []byte
	for _, tu := range res.Tuples {
		buf = types.EncodeTuple(buf[:0], tu)
		h.Write(buf)
		h.Write([]byte{0xff})
	}
	var b bytes.Buffer
	st := db.Pool().Stats()
	fmt.Fprintf(&b, "%s rows=%d kept=%d sha=%x cpu=%d now=%d hits=%d misses=%d profile=",
		name, res.Rows, len(res.Tuples), h.Sum(nil), int64(sess.Acct().CPUTime()), int64(sess.Acct().Now()), st.Hits, st.Misses)
	prof := sess.Acct().Profile()
	ids := make([]int, 0, len(prof))
	for id := range prof {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		v := prof[catalog.ObjectID(id)]
		fmt.Fprintf(&b, "%d:%g,%g,%g,%g;", id, v[device.SeqRead], v[device.RandRead], v[device.SeqWrite], v[device.RandWrite])
	}
	b.WriteByte('\n')
	return b.String()
}

// TestTPCHGolden pins the executor's observable behaviour — which rows come
// out in which order, and every page and nanosecond charged on the way —
// for all 22 TPC-H templates and the five modified ones at SF 0.001 on an
// all-HDD and an all-H-SSD layout (so hash joins and indexed nested-loop
// joins both occur, and the plans differ between the layouts), plus two
// hand-built join-under-LIMIT plans whose root is not an aggregate, so full
// joined rows and the early stop are pinned too. A change of how tuples
// flow through the operators must leave the file byte-identical; a diff
// means different rows or different charges, not a different speed.
// Regenerate with `go test ./internal/executor -run TestTPCHGolden -update`
// only when that is intended.
func TestTPCHGolden(t *testing.T) {
	box := device.Box2()
	db := engine.New(box, engine.DefaultPoolPages)
	cfg := tpch.Config{ScaleFactor: 0.001, Seed: 1}
	if err := tpch.Build(db, cfg); err != nil {
		t.Fatal(err)
	}
	pages := db.TotalPages() / 8
	if pages < 32 {
		pages = 32
	}
	// The original templates plan hash joins only at this scale; the five
	// modified ones (selective key predicates) are where INLJ plans occur.
	queries := append(tpch.OriginalWorkload(cfg, 2).Queries[:22:22], tpch.ModifiedWorkload(cfg, 2).Queries[:5]...)

	obj := func(name string) catalog.ObjectID {
		if tab, err := db.Cat.TableByName(name); err == nil {
			return tab.ID
		}
		ix, err := db.Cat.IndexByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return ix.ID
	}
	cols := func(table string) []plan.ColRef {
		var out []plan.ColRef
		for _, c := range db.TableSchema(table).Columns {
			out = append(out, plan.ColRef{Table: table, Column: c.Name})
		}
		return out
	}
	orders := func() *plan.SeqScan {
		return &plan.SeqScan{
			Table: "orders", TableID: obj("orders"), Cols: cols("orders"),
			Filter: []plan.Pred{{Table: "orders", Column: "o_totalprice", Op: plan.Gt, Lo: types.NewFloat(1000)}},
		}
	}
	manual := []struct {
		name string
		root plan.Node
	}{
		{"limit-hj", &plan.LimitNode{N: 37, Input: &plan.Join{
			Algo:  plan.HashJoin,
			Outer: orders(), OuterCol: plan.ColRef{Table: "orders", Column: "o_custkey"},
			Inner:    &plan.SeqScan{Table: "customer", TableID: obj("customer"), Cols: cols("customer")},
			InnerCol: plan.ColRef{Table: "customer", Column: "c_custkey"},
		}}},
		{"limit-inlj", &plan.LimitNode{N: 37, Input: &plan.Join{
			Algo:  plan.IndexNLJoin,
			Outer: orders(), OuterCol: plan.ColRef{Table: "orders", Column: "o_custkey"},
			InnerTable: "customer", InnerTableID: obj("customer"),
			InnerIndex: "customer_pkey", InnerIndexID: obj("customer_pkey"),
			InnerResidual: []plan.Pred{{Table: "customer", Column: "c_acctbal", Op: plan.Gt, Lo: types.NewFloat(0)}},
			InnerCols:     cols("customer"),
		}}},
	}

	var out bytes.Buffer
	algos := map[plan.JoinAlgo]int{}
	for _, cls := range []device.Class{device.HDD, device.HSSD} {
		if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, cls)); err != nil {
			t.Fatal(err)
		}
		db.ResizePool(pages)
		sess, err := db.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			pl, err := db.Plan(q)
			if err != nil {
				t.Fatalf("%v/%s: %v", cls, q.Name, err)
			}
			for _, a := range pl.JoinAlgos() {
				algos[a]++
			}
			res, err := sess.RunPlan(pl)
			if err != nil {
				t.Fatalf("%v/%s: %v", cls, q.Name, err)
			}
			out.WriteString(goldenLine(fmt.Sprintf("%v/%s", cls, q.Name), res, sess, db))
		}
		for _, m := range manual {
			res, err := sess.RunPlan(&plan.Plan{Query: &plan.Query{Name: m.name}, Root: m.root})
			if err != nil {
				t.Fatalf("%v/%s: %v", cls, m.name, err)
			}
			if res.Rows != 37 || len(res.Tuples[0]) != len(m.root.Schema()) {
				t.Fatalf("%v/%s: %d rows of width %d, want 37 full joined rows", cls, m.name, res.Rows, len(res.Tuples[0]))
			}
			out.WriteString(goldenLine(fmt.Sprintf("%v/%s", cls, m.name), res, sess, db))
		}
	}
	if algos[plan.HashJoin] == 0 || algos[plan.IndexNLJoin] == 0 {
		t.Fatalf("the two layouts should plan both join algorithms, got %v", algos)
	}

	path := filepath.Join("testdata", "tpch.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("first difference at line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
}
