package profiler

import (
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/plan"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

func buildDB(t *testing.T) (*engine.DB, *workload.DSS) {
	t.Helper()
	db := engine.New(device.Box1(), 32)
	sch := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
	)
	if _, err := db.CreateTable("t", sch, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := db.Load("t", types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	w := &workload.DSS{Name: "w", Queries: []*plan.Query{
		{Name: "scan", Tables: []string{"t"}, Aggs: []plan.Agg{{Func: plan.Count}}},
		{Name: "point", Tables: []string{"t"},
			Preds: []plan.Pred{{Table: "t", Column: "id", Op: plan.Eq, Lo: types.NewInt(7)}}},
	}}
	return db, w
}

func TestProfileDSSEstimates(t *testing.T) {
	db, w := buildDB(t)
	ps, err := ProfileDSSEstimates(db, w)
	if err != nil {
		t.Fatal(err)
	}
	// Box 1, K=2 (table + pk index): 9 baseline patterns.
	if ps.Patterns() != 9 {
		t.Fatalf("patterns = %d, want 9", ps.Patterns())
	}
	if ps.MaxK() != 2 {
		t.Fatalf("maxK = %d, want 2", ps.MaxK())
	}
	tab, _ := db.Cat.TableByName("t")
	for _, pattern := range core.BaselinePatterns(db.Cat, db.Box) {
		prof, err := ps.For(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Get(tab.ID).Total() == 0 {
			t.Fatalf("pattern %v has no I/O on the table", pattern)
		}
	}
}

func TestProfilesReflectPlanChanges(t *testing.T) {
	// On an all-H-SSD baseline the point query uses the index (RR on index);
	// on an all-HDD-RAID0 baseline it may not. At minimum, the profiles of
	// different baselines must not be blindly identical when plans change.
	db, w := buildDB(t)
	ps, err := ProfileDSSEstimates(db, w)
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := db.Cat.IndexByName("t_pkey")
	fast, _ := ps.For(core.Pattern{device.HSSD, device.HSSD})
	if fast.Get(ix.ID)[device.RandRead] == 0 {
		t.Fatal("all-H-SSD baseline should use the index for the point query")
	}
}
