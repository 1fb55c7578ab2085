package executor_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dotprov/internal/bufferpool"
	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/executor"
	"dotprov/internal/pagestore"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// noteLen is the length of every note scanDB loads: a record is 69 bytes,
// so a page holds 112 of them and has less than one record's room left.
const noteLen = 40

// scanRow is row i of scanDB: w(id INT, v INT, d DATE, note STRING).
func scanRow(i int) types.Tuple {
	note := fmt.Sprintf("note %03d ", i)
	return types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i * 7 % 500)),
		types.NewDate(int64(9000 + i%90)), types.NewString(note + strings.Repeat("x", noteLen-len(note)))}
}

// scanDB loads rows into w, in order, on a database of its own: four pages
// for the 400 rows of scanRows, the last one part full.
func scanDB(t *testing.T, rows []types.Tuple) *engine.DB {
	t.Helper()
	db := engine.New(device.Box1(), 64)
	if _, err := db.CreateTable("w", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindDate},
		types.Column{Name: "note", Kind: types.KindString},
	), []string{"id"}); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := db.Load("w", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	return db
}

func scanRows() []types.Tuple {
	rows := make([]types.Tuple, 400)
	for i := range rows {
		rows[i] = scanRow(i)
	}
	return rows
}

// scanPlans are the scans of w every write test runs: every column
// unfiltered; filtered on an int, on a date range and on a string; and two
// aggregates, which ask the scan for some of its columns only.
func scanPlans(t *testing.T, db *engine.DB) []plan.Node {
	id := tableID(t, db, "w")
	var cols []plan.ColRef
	for _, c := range []string{"id", "v", "d", "note"} {
		cols = append(cols, plan.ColRef{Table: "w", Column: c})
	}
	scan := func(f ...plan.Pred) *plan.SeqScan {
		return &plan.SeqScan{Table: "w", TableID: id, Cols: cols, Filter: f}
	}
	return []plan.Node{
		scan(),
		scan(plan.Pred{Table: "w", Column: "v", Op: plan.Ge, Lo: types.NewInt(250)}),
		scan(plan.Pred{Table: "w", Column: "d", Op: plan.Between, Lo: types.NewDate(9010), Hi: types.NewDate(9020)}),
		scan(plan.Pred{Table: "w", Column: "note", Op: plan.Lt, Lo: types.NewString("note 1")}),
		&plan.AggNode{
			Input: scan(plan.Pred{Table: "w", Column: "id", Op: plan.Lt, Lo: types.NewInt(300)}),
			Aggs:  []plan.Agg{{Func: plan.Count}, {Func: plan.Sum, Table: "w", Column: "v"}},
		},
		&plan.AggNode{
			Input:   scan(plan.Pred{Table: "w", Column: "v", Op: plan.Gt, Lo: types.NewInt(100)}),
			GroupBy: []plan.ColRef{{Table: "w", Column: "d"}},
			Aggs:    []plan.Agg{{Func: plan.Max, Table: "w", Column: "note"}},
		},
	}
}

// scanAll runs every scan plan and returns each one's encoded rows.
func scanAll(t *testing.T, db *engine.DB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, p := range scanPlans(t, db) {
		out = append(out, encodeRows(runNode(t, db, p).Tuples))
	}
	return out
}

// checkScansAfterWrite scans w, lets write change it through a session,
// scans again, and requires the second scans to answer exactly as the
// same scans on a fresh database loaded with want, the rows w holds after
// the write in their scan order. A decoded copy of a page kept from the
// first scans must not survive a write to that page.
func checkScansAfterWrite(t *testing.T, write func(*engine.Session) error, want []types.Tuple) {
	t.Helper()
	db := scanDB(t, scanRows())
	before := scanAll(t, db)
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := write(sess); err != nil {
		t.Fatal(err)
	}
	got, fresh := scanAll(t, db), scanAll(t, scanDB(t, want))
	changed := false
	for i := range got {
		if !bytes.Equal(got[i], fresh[i]) {
			t.Errorf("scan %d after the write differs from the same scan of a fresh database", i)
		}
		changed = changed || !bytes.Equal(before[i], fresh[i])
	}
	if !changed {
		t.Fatal("the write changed no scan's answer: the fixture tests nothing")
	}
}

// ridOf looks row id up through w's primary key.
func ridOf(s *engine.Session, id int) (pagestore.RID, error) {
	_, rids, err := s.LookupEq("w_pkey", types.NewInt(int64(id)))
	if err != nil {
		return pagestore.RID{}, err
	}
	if len(rids) != 1 {
		return pagestore.RID{}, fmt.Errorf("row %d: %d matches", id, len(rids))
	}
	return rids[0], nil
}

// TestScanSeesInPlaceUpdate: an update that keeps the record's length
// rewrites its bytes and leaves the page header exactly as it was.
func TestScanSeesInPlaceUpdate(t *testing.T) {
	want := scanRows()
	want[5] = scanRow(5)
	want[5][1] = types.NewInt(499)
	checkScansAfterWrite(t, func(s *engine.Session) error {
		rid, err := ridOf(s, 5)
		if err != nil {
			return err
		}
		return s.UpdateByRID("w", rid, want[5])
	}, want)
}

// TestScanSeesDelete: a deleted row leaves its slot behind, empty.
func TestScanSeesDelete(t *testing.T) {
	want := scanRows()
	want = append(want[:7:7], want[8:]...)
	checkScansAfterWrite(t, func(s *engine.Session) error {
		rid, err := ridOf(s, 7)
		if err != nil {
			return err
		}
		return s.DeleteByRID("w", rid)
	}, want)
}

// TestScanSeesInsertIntoLastPage: the last page is part full, so a new
// row lands on it, after its rows, and no page is added.
func TestScanSeesInsertIntoLastPage(t *testing.T) {
	want := append(scanRows(), scanRow(400))
	checkScansAfterWrite(t, func(s *engine.Session) error { return s.Insert("w", want[400]) }, want)
}

// TestScanSeesCompactingUpdate: row 1 shrinks to leave dead bytes on the
// full first page, then row 0 grows past the page's free room, so its
// page is compacted and the record moved; both keep their slots.
func TestScanSeesCompactingUpdate(t *testing.T) {
	want := scanRows()
	want[1] = scanRow(1)
	want[1][3] = types.NewString("")
	want[0] = scanRow(0)
	want[0][3] = types.NewString(strings.Repeat("y", noteLen+30))
	checkScansAfterWrite(t, func(s *engine.Session) error {
		for _, id := range []int{1, 0} {
			rid, err := ridOf(s, id)
			if err != nil {
				return err
			}
			if rid.Page != 0 {
				return fmt.Errorf("row %d is on page %d, not the first", id, rid.Page)
			}
			if err := s.UpdateByRID("w", rid, want[id]); err != nil {
				return err
			}
		}
		return nil
	}, want)
}

// ownPool lends a database to one goroutine with a buffer pool of its own.
// A pool serves one session at a time; the heaps and whatever the executor
// keeps on the database for its scans are shared by every session, so
// those are what two concurrent scans exercise.
type ownPool struct {
	*engine.DB
	pool *bufferpool.Pool
}

// Pool implements executor.Storage.
func (s ownPool) Pool() *bufferpool.Pool { return s.pool }

// TestConcurrentScansOfOneDatabase runs the scans of the write tests from
// two sessions at once on one database that nothing has scanned yet, each
// session with its own buffer pool, both running the same plans in the same
// order: whichever executes a plan first records it while the other may
// replay it, and later rounds replay it. Every run of both must show what
// the same sequence of runs shows alone on a database of its own — the
// rows, the CPU and clock it charged and its pool's hits and misses —
// after its first round no session executes a plan, and under -race
// nothing the scans share may race.
func TestConcurrentScansOfOneDatabase(t *testing.T) {
	const rounds = 3
	// steps runs every scan rounds times in one session of db on its own
	// pool and renders each run.
	steps := func(db *engine.DB, pool *bufferpool.Pool, plans []plan.Node, step func(i int, got string) bool) error {
		sess, err := db.NewSession()
		if err != nil {
			return err
		}
		st, acct := ownPool{DB: db, pool: pool}, sess.Acct()
		for i := 0; i < rounds*len(plans); i++ {
			cpu, now, before := acct.CPUTime(), acct.Now(), pool.Stats()
			res, err := executor.Run(st, acct, &plan.Plan{Query: &plan.Query{Name: "concurrent"}, Root: plans[i%len(plans)]})
			if err != nil {
				return err
			}
			after := pool.Stats()
			got := fmt.Sprintf("cpu=%d now=%d hits=%d misses=%d rows=%x", acct.CPUTime()-cpu, acct.Now()-now,
				after.Hits-before.Hits, after.Misses-before.Misses, encodeRows(res.Tuples))
			if !step(i, got) {
				return nil
			}
		}
		return nil
	}
	var want []string
	alone := scanDB(t, scanRows())
	if err := steps(alone, bufferpool.New(64), scanPlans(t, alone), func(_ int, got string) bool {
		want = append(want, got)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	db := scanDB(t, scanRows())
	plans := scanPlans(t, db)
	executed := executor.CountExecutions(t)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			err := steps(db, bufferpool.New(64), plans, func(i int, got string) bool {
				if got != want[i] {
					errs <- fmt.Errorf("session %d, run %d: scan %d showed\n  %.200s\nbeside another session, alone\n  %.200s", w, i, i%len(plans), got, want[i])
					return false
				}
				return true
			})
			if err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := executed(); n > 2*len(plans) {
		t.Errorf("the sessions executed %d of %d runs: after its first round each should replay", n, 2*rounds*len(plans))
	}
}
