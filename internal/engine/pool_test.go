package engine

import (
	"dotprov/internal/catalog"
	"testing"

	"dotprov/internal/plan"
	"dotprov/internal/types"
)

func TestTotalPagesAndResizePool(t *testing.T) {
	db := newTestDB(t)
	total := db.TotalPages()
	if total <= 0 {
		t.Fatal("TotalPages should be positive after loading")
	}
	// Heaps plus trees must both count.
	var heapPages int
	for _, tab := range db.Cat.Tables() {
		heapPages += db.Heap(tab.ID).NumPages()
	}
	if total <= heapPages {
		t.Fatalf("TotalPages (%d) should exceed heap pages (%d): indexes count too", total, heapPages)
	}
	// Shrinking the pool increases misses for the same workload.
	q := &plan.Query{Name: "scan", Tables: []string{"orders"}, Aggs: []plan.Agg{{Func: plan.Count}}}
	run := func(pool int) int64 {
		db.ResizePool(pool)
		// Warm.
		sess, _ := db.NewSession()
		if _, err := sess.Run(q); err != nil {
			t.Fatal(err)
		}
		// Measure the warm pass.
		sess2, _ := db.NewSession()
		if _, err := sess2.Run(q); err != nil {
			t.Fatal(err)
		}
		return int64(sess2.Acct().Profile().Get(tableIDOf(t, db, "orders")).Total())
	}
	bigPoolIO := run(total * 2)
	tinyPoolIO := run(2)
	if bigPoolIO >= tinyPoolIO {
		t.Fatalf("warm scan with a huge pool charged %d I/Os, tiny pool %d: caching not effective", bigPoolIO, tinyPoolIO)
	}
}

// TestPaperPoolPages: an eighth of the database's pages, never below 32.
func TestPaperPoolPages(t *testing.T) {
	db := newTestDB(t)
	if got, want := db.PaperPoolPages(), max(db.TotalPages()/8, 32); got != want {
		t.Fatalf("PaperPoolPages %d, want %d (TotalPages %d)", got, want, db.TotalPages())
	}
	if got := New(db.Box, DefaultPoolPages).PaperPoolPages(); got != 32 {
		t.Fatalf("empty database: PaperPoolPages %d, want the 32-page floor", got)
	}
}

func tableIDOf(t *testing.T, db *DB, name string) catalog.ObjectID {
	t.Helper()
	tab, err := db.Cat.TableByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab.ID
}

func TestConcurrencySettings(t *testing.T) {
	db := newTestDB(t)
	db.SetConcurrency(0)
	if db.Concurrency() != 1 {
		t.Fatal("concurrency below 1 should clamp")
	}
	db.SetConcurrency(300)
	if db.Concurrency() != 300 {
		t.Fatal("concurrency not stored")
	}
	if planner(t, db).Concurrency != 300 {
		t.Fatal("optimizer concurrency not updated")
	}
	// Sessions resolve service times at the configured concurrency: H-SSD
	// RR is faster at c=300 than at c=1 (Table 1), so the same point query
	// consumes less virtual time.
	q := &plan.Query{
		Name:   "point",
		Tables: []string{"item"},
		Preds:  []plan.Pred{{Table: "item", Column: "i_id", Op: plan.Eq, Lo: types300()}},
	}
	db.ClearPool()
	fast, _ := db.NewSession()
	if _, err := fast.Run(q); err != nil {
		t.Fatal(err)
	}
	t300 := fast.Acct().IOTime()
	db.SetConcurrency(1)
	db.ClearPool()
	slow, _ := db.NewSession()
	if _, err := slow.Run(q); err != nil {
		t.Fatal(err)
	}
	t1 := slow.Acct().IOTime()
	if t300 >= t1 {
		t.Fatalf("H-SSD point query at c=300 (%v) should be faster than at c=1 (%v)", t300, t1)
	}
}

func types300() types.Value { return types.NewInt(300) }
