package tpch

import (
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
)

func tinyConfig() Config { return Config{ScaleFactor: 0.001, Seed: 7} }

func buildTiny(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(device.Box1(), 2048)
	if err := Build(db, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBuildSchemaHas16Objects(t *testing.T) {
	db := buildTiny(t)
	objs := db.Cat.Objects()
	if len(objs) != 16 {
		t.Fatalf("TPC-H catalog has %d objects, want 16 (paper §4.4.3)", len(objs))
	}
	tables, indexes := 0, 0
	for _, o := range objs {
		switch o.Kind {
		case catalog.KindTable:
			tables++
		case catalog.KindIndex:
			indexes++
		}
		if o.SizeBytes == 0 {
			t.Errorf("object %s has zero size after Analyze", o.Name)
		}
	}
	if tables != 8 || indexes != 8 {
		t.Fatalf("got %d tables, %d indexes; want 8 and 8", tables, indexes)
	}
}

func TestRowCountsScale(t *testing.T) {
	rows := Config{ScaleFactor: 0.01}.Rows()
	if rows["region"] != 5 || rows["nation"] != 25 {
		t.Error("fixed tables wrong")
	}
	if rows["orders"] != 15000 || rows["lineitem"] != 60000 {
		t.Errorf("orders=%d lineitem=%d, want 15000/60000 at SF 0.01", rows["orders"], rows["lineitem"])
	}
	if rows["customer"] != 1500 || rows["part"] != 2000 || rows["partsupp"] != 8000 {
		t.Errorf("scaled counts wrong: %v", rows)
	}
	// Minimums kick in for tiny SFs.
	small := Config{ScaleFactor: 1e-9}.Rows()
	if small["supplier"] < 10 || small["orders"] < 150 {
		t.Error("minimum row counts not enforced")
	}
}

func TestLineitemIsLargestObject(t *testing.T) {
	db := buildTiny(t)
	li, _ := db.Cat.TableByName("lineitem")
	for _, o := range db.Cat.Objects() {
		if o.ID != li.ID && o.SizeBytes > li.SizeBytes {
			t.Fatalf("%s (%d bytes) is larger than lineitem (%d)", o.Name, o.SizeBytes, li.SizeBytes)
		}
	}
}

func TestAllTemplatesValidateAndPlan(t *testing.T) {
	db := buildTiny(t)
	g := newGen(tinyConfig(), 3)
	for tmpl := 1; tmpl <= 22; tmpl++ {
		q := g.Query(tmpl)
		if err := q.Validate(); err != nil {
			t.Errorf("template %d invalid: %v", tmpl, err)
			continue
		}
		if _, err := db.Plan(q); err != nil {
			t.Errorf("template %d fails to plan: %v", tmpl, err)
		}
	}
	for _, tmpl := range ModifiedTemplates {
		q := g.ModifiedQuery(tmpl)
		if err := q.Validate(); err != nil {
			t.Errorf("modified template %d invalid: %v", tmpl, err)
			continue
		}
		if _, err := db.Plan(q); err != nil {
			t.Errorf("modified template %d fails to plan: %v", tmpl, err)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	g1 := newGen(tinyConfig(), 42)
	g2 := newGen(tinyConfig(), 42)
	for tmpl := 1; tmpl <= 22; tmpl++ {
		a, b := g1.Query(tmpl), g2.Query(tmpl)
		if a.String() != b.String() {
			t.Fatalf("template %d not deterministic:\n%s\n%s", tmpl, a, b)
		}
	}
}

func TestOriginalWorkloadRuns(t *testing.T) {
	db := buildTiny(t)
	w := OriginalWorkload(tinyConfig(), 5)
	if len(w.Queries) != 66 {
		t.Fatalf("original workload has %d queries, want 66", len(w.Queries))
	}
	obs, err := w.RunDetailed(db)
	if err != nil {
		t.Fatal(err)
	}
	m, prof := obs.Metrics, obs.Profile
	if m.Elapsed <= 0 || len(m.PerQuery) != 66 {
		t.Fatalf("metrics wrong: %+v", m)
	}
	li, _ := db.Cat.TableByName("lineitem")
	v := prof.Get(li.ID)
	if v[device.SeqRead] == 0 {
		t.Fatal("the original mix must sequentially scan lineitem")
	}
	// Paper §4.4.1: SR dominates the original workload. Compare page-read
	// counts across all objects.
	var sr, rr float64
	for _, o := range db.Cat.Objects() {
		sr += prof.Get(o.ID)[device.SeqRead]
		rr += prof.Get(o.ID)[device.RandRead]
	}
	if sr <= rr {
		t.Fatalf("original workload should be SR-dominated: SR=%g RR=%g", sr, rr)
	}
}

func TestModifiedWorkloadRuns(t *testing.T) {
	db := buildTiny(t)
	w := ModifiedWorkload(tinyConfig(), 5)
	if len(w.Queries) != 100 {
		t.Fatalf("modified workload has %d queries, want 100", len(w.Queries))
	}
	obs, err := w.RunDetailed(db)
	if err != nil {
		t.Fatal(err)
	}
	m, prof := obs.Metrics, obs.Profile
	if m.Elapsed <= 0 {
		t.Fatal("no time elapsed")
	}
	var rr float64
	for _, o := range db.Cat.Objects() {
		rr += prof.Get(o.ID)[device.RandRead]
	}
	if rr == 0 {
		t.Fatal("the modified mix must issue random reads (mixed I/O)")
	}
}

func TestSubsetWorkload(t *testing.T) {
	db := engine.New(device.Box1(), 2048)
	if err := BuildSubset(db, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if got := len(db.Cat.Objects()); got != 8 {
		t.Fatalf("subset catalog has %d objects, want 8 (paper §4.4.3)", got)
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	w := SubsetWorkload(tinyConfig(), 5)
	if len(w.Queries) != 33 {
		t.Fatalf("subset workload has %d queries, want 33", len(w.Queries))
	}
	if _, err := w.RunDetailed(db); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorConsistentWithRuns(t *testing.T) {
	// The extended optimizer's estimates drive DOT; they should be within
	// an order of magnitude of the measured virtual times (the paper's
	// validation phase tolerates and corrects residual error).
	db := buildTiny(t)
	w := SubsetWorkload(tinyConfig(), 9)
	est := w.Estimator(db)
	predicted, err := est.Estimate(db.Layout())
	if err != nil {
		t.Fatal(err)
	}
	measured, err := w.RunDetailed(db)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(predicted.Elapsed) / float64(measured.Metrics.Elapsed)
	if ratio < 0.1 || ratio > 10 {
		t.Fatalf("estimate %v vs measured %v (ratio %.2f) — model out of range", predicted.Elapsed, measured.Metrics.Elapsed, ratio)
	}
}
