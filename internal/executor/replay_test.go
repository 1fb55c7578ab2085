package executor_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
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

// chargeTap keeps a digest of every device charge mirrored to it, in order.
type chargeTap struct {
	n   int
	buf []byte
}

// ChargePageIO implements iosim.Charger.
func (c *chargeTap) ChargePageIO(id catalog.ObjectID, t device.IOType, page int64, n int64) {
	c.n++
	c.buf = binary.AppendUvarint(c.buf, uint64(id))
	c.buf = append(c.buf, byte(t))
	c.buf = binary.AppendVarint(c.buf, page)
	c.buf = binary.AppendVarint(c.buf, n)
}

// observeRun runs one query on db from a cold pool in a session of its own
// with a tap installed, and renders everything the run shows the rest of
// the system: the session's virtual clock, CPU time and per-object
// profile, the pool's hits and misses, the stream of charges the tap saw,
// and the rows (count and sorted-row digest).
func observeRun(t *testing.T, db *engine.DB, run func(*engine.Session) (*executor.Result, error)) string {
	t.Helper()
	tap := &chargeTap{}
	db.SetTap(tap)
	defer db.SetTap(nil)
	db.ClearPool()
	before := db.Pool().Stats()
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(sess)
	if err != nil {
		t.Fatal(err)
	}
	after := db.Pool().Stats()
	prof := sess.Acct().Profile()
	ids := make([]int, 0, len(prof))
	for id := range prof {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	profile := ""
	for _, id := range ids {
		v := prof[catalog.ObjectID(id)]
		profile += fmt.Sprintf("%d:%g,%g,%g,%g;", id, v[device.SeqRead], v[device.RandRead], v[device.SeqWrite], v[device.RandWrite])
	}
	return fmt.Sprintf("now=%d cpu=%d hits=%d misses=%d profile=%s charges=%d/%x %s",
		int64(sess.Acct().Now()), int64(sess.Acct().CPUTime()), after.Hits-before.Hits, after.Misses-before.Misses,
		profile, tap.n, sha256.Sum256(tap.buf), rowsDigest(res.Rows, res.Tuples))
}

// execute plans q on db and executes the plan in sess through
// executor.RunPoisoned, which runs the operators whatever ran on db before,
// collecting the rows as Run does.
func execute(db *engine.DB, sess *engine.Session, q *plan.Query) (*executor.Result, error) {
	pl, err := db.Plan(q)
	if err != nil {
		return nil, err
	}
	res := &executor.Result{}
	err = executor.RunPoisoned(db, sess.Acct(), pl.Root, func(tu types.Tuple) bool {
		res.Rows++
		if len(res.Tuples) < executor.MaxResultTuples {
			res.Tuples = append(res.Tuples, tu.Clone())
		}
		return true
	})
	return res, err
}

// replayDB builds the TPC-H database every run of TestReplayMatchesExecution
// reads, with the pool at an eighth of the data.
func replayDB(t *testing.T, box *device.Box, cfg tpch.Config) *engine.DB {
	t.Helper()
	db := engine.New(box, engine.DefaultPoolPages)
	if err := tpch.Build(db, cfg); err != nil {
		t.Fatal(err)
	}
	db.ResizePool(max(db.TotalPages()/8, 32))
	return db
}

// TestReplayMatchesExecution runs every original and modified TPC-H query
// twice on one database and once on a fresh one, under a uniform layout
// and six seeded random layouts of both boxes, and requires each of the
// two runs to show exactly what the fresh run shows: clock, CPU, profile,
// pool hits and misses, every charge in order, and the rows. The fresh run
// executes the operators (RunPoisoned), whatever ran on its database
// before; the one database keeps what earlier runs, under earlier layouts,
// left on it. A layout only prices the page accesses a plan makes, so a run
// that reuses what an earlier run of the same plan did must be
// indistinguishable from executing it. Then a write between two runs: the
// run after it executes, and answers as a fresh database holding the
// written rows does.
func TestReplayMatchesExecution(t *testing.T) {
	cfg := tpch.Config{ScaleFactor: 0.001, Seed: 3}
	queries := append(tpch.OriginalWorkload(cfg, 5).Queries, tpch.ModifiedWorkload(cfg, 5).Queries...)
	for _, box := range []*device.Box{device.Box1(), device.Box2()} {
		shared := replayDB(t, box, cfg)
		classes := box.Classes()
		layouts := []catalog.Layout{catalog.NewUniformLayout(shared.Cat, box.MostExpensive().Class)}
		r := rand.New(rand.NewSource(11))
		for range 6 {
			l := catalog.Layout{}
			for _, o := range shared.Cat.Objects() {
				l[o.ID] = classes[r.Intn(len(classes))]
			}
			layouts = append(layouts, l)
		}
		algos := map[plan.JoinAlgo]int{}
		for li, l := range layouts {
			fresh := replayDB(t, box, cfg)
			for _, db := range []*engine.DB{shared, fresh} {
				if err := db.SetLayout(l); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range queries {
				pl, err := shared.Plan(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range pl.JoinAlgos() {
					algos[a]++
				}
				want := observeRun(t, fresh, func(s *engine.Session) (*executor.Result, error) { return execute(fresh, s, q) })
				for i := 1; i <= 2; i++ {
					if got := observeRun(t, shared, func(s *engine.Session) (*executor.Result, error) { return s.Run(q) }); got != want {
						t.Errorf("%s layout %d %s, run %d on a used database:\n got  %s\n want %s", box.Name, li, q.Name, i, got, want)
					}
				}
			}
		}
		if algos[plan.HashJoin] == 0 || algos[plan.IndexNLJoin] == 0 {
			t.Fatalf("%s: the layouts should plan both join algorithms, got %v", box.Name, algos)
		}
	}

	executed := executor.CountExecutions(t)
	db := scanDB(t, scanRows())
	root := scanPlans(t, db)[5]
	run := func(s *engine.Session) (*executor.Result, error) {
		return s.RunPlan(&plan.Plan{Query: &plan.Query{Name: "after a write"}, Root: root})
	}
	observeRun(t, db, run)
	observeRun(t, db, run)
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Insert("w", scanRow(400)); err != nil {
		t.Fatal(err)
	}
	n := executed()
	got := observeRun(t, db, run)
	if executed() != n+1 {
		t.Errorf("the run after a write did not execute the plan (%d executions)", executed()-n)
	}
	if want := observeRun(t, scanDB(t, append(scanRows(), scanRow(400))), run); got != want {
		t.Errorf("the run after a write:\n got  %s\n want %s", got, want)
	}
}
