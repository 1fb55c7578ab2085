package workload

import (
	"reflect"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// planSum is what the estimator must equal: the workload planned afresh.
func planSum(db *engine.DB, w *DSS, l catalog.Layout) (Metrics, error) {
	m := Metrics{PerQuery: make([]time.Duration, 0, len(w.Queries))}
	for _, q := range w.Queries {
		pl, err := db.PlanUnder(q, l)
		if err != nil {
			return Metrics{}, err
		}
		m.PerQuery = append(m.PerQuery, pl.Est.Time())
		m.Elapsed += pl.Est.Time()
	}
	return m, nil
}

// TestDSSEstimatorFollowsTheStatistics: the cost tables belong to the
// statistics they were filled from. A bulk load makes every estimate the
// planner's "Analyze must run" error until Analyze runs; after it the
// estimate is the new plan's (here the range predicate turns selective and
// the scan flips from sequential to indexed), never the table's old entry;
// a change of concurrency re-prices too. Map and compiled form alike.
func TestDSSEstimatorFollowsTheStatistics(t *testing.T) {
	db, count := buildTinyDB(t)
	rng := &plan.Query{Name: "range", Tables: []string{"t"},
		Preds: []plan.Pred{{Table: "t", Column: "id", Op: plan.Le, Lo: types.NewInt(100)}},
		Aggs:  []plan.Agg{{Func: plan.Count}}}
	w := &DSS{Name: "w", Queries: []*plan.Query{count, rng}}
	l := db.Layout()
	cl := catalog.CompactUniform(db.Cat, device.Singleton(device.HSSD))
	est := w.Estimator(db)
	ce := CompileEstimator(est, db.Cat).(CompactEstimator)

	check := func(when string) Metrics {
		t.Helper()
		want, err := planSum(db, w, l)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the second round is served from the tables
			if got, err := est.Estimate(l); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Estimate = %+v, %v; planning afresh gives %+v", when, got, err, want)
			}
			if got, err := ce.EstimateCompact(cl); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: EstimateCompact = %+v, %v; planning afresh gives %+v", when, got, err, want)
			}
		}
		return want
	}
	scanOf := func() plan.Node {
		pl, err := db.PlanUnder(rng, l)
		if err != nil {
			t.Fatal(err)
		}
		return pl.Root.(*plan.AggNode).Input
	}

	before := check("loaded")
	if _, ok := scanOf().(*plan.SeqScan); !ok {
		t.Fatalf("a range over a five-page table should scan it, got %s", scanOf().Describe())
	}

	for i := 2000; i < 200000; i++ {
		if err := db.Load("t", types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	_, wantErr := db.PlanUnder(count, l)
	if wantErr == nil {
		t.Fatal("planning after a load must demand Analyze")
	}
	if _, err := est.Estimate(l); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("Estimate after a load: %v, want %v", err, wantErr)
	}
	if _, err := ce.EstimateCompact(cl); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("EstimateCompact after a load: %v, want %v", err, wantErr)
	}

	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	after := check("re-analyzed")
	if _, ok := scanOf().(*plan.IndexScan); !ok {
		t.Fatalf("a 0.05%% range should use the index on the H-SSD, got %s", scanOf().Describe())
	}
	if after.PerQuery[0] <= before.PerQuery[0] || after.PerQuery[1] == before.PerQuery[1] {
		t.Fatalf("estimates did not follow the statistics: before %v, after %v", before.PerQuery, after.PerQuery)
	}

	db.SetConcurrency(300)
	if busy := check("at concurrency 300"); busy.Elapsed == after.Elapsed {
		t.Fatal("service times at concurrency 300 should re-price the estimate")
	}
}

// TestDSSEstimatorLayoutErrors: a layout the planner refuses is refused by
// the estimator with the planner's words, in both forms — also when the
// offending object is one no plan of the query reads (the count query never
// touches the index), and also when the tables already hold the answer for
// the placement of the objects that matter.
func TestDSSEstimatorLayoutErrors(t *testing.T) {
	db, count := buildTinyDB(t)
	w := &DSS{Name: "w", Queries: []*plan.Query{count}}
	est := w.Estimator(db)
	ce := CompileEstimator(est, db.Cat).(CompactEstimator)
	good := db.Layout()
	base, err := est.Estimate(good) // fills the table for "t on H-SSD"
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Cat.IndexByName("t_pkey")
	if err != nil {
		t.Fatal(err)
	}

	unplaced := good.Clone()
	delete(unplaced, ix.ID)
	absent := good.Clone()
	absent[ix.ID] = device.HDD // Box 1 has no plain HDD
	for name, l := range map[string]catalog.Layout{"unplaced": unplaced, "absent class": absent} {
		_, wantErr := db.PlanUnder(count, l)
		if wantErr == nil {
			t.Fatalf("%s: the planner should refuse the layout", name)
		}
		if _, err := est.Estimate(l); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: Estimate: %v, want %v", name, err, wantErr)
		}
		cl, ok := catalog.CompactFromSetLayout(db.Cat, catalog.SingletonSetLayout(l))
		if !ok {
			t.Fatal("layout does not encode")
		}
		if _, err := ce.EstimateCompact(cl); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: EstimateCompact: %v, want %v", name, err, wantErr)
		}
	}

	// A move of the index onto the absent class is refused by the delta too.
	cl, _ := catalog.CompactFromSetLayout(db.Cat, catalog.SingletonSetLayout(absent))
	mv := []ObjectMove{{Obj: ix.ID, From: device.Singleton(device.HSSD), To: device.Singleton(device.HDD)}}
	if _, err := ce.EstimateDelta(cl, base, mv); err == nil {
		t.Fatal("EstimateDelta onto a class the box lacks must fail")
	}
	// Two copies of an object have no meaning to the planner.
	two := catalog.CompactUniform(db.Cat, device.NewClassSet(device.LSSD, device.HSSD))
	if _, err := ce.EstimateCompact(two); err == nil {
		t.Fatal("a multi-copy layout must be refused")
	}
	if _, err := (&DSS{Queries: []*plan.Query{{Name: "bad"}}}).Estimator(db).Estimate(good); err == nil {
		t.Fatal("a malformed query must fail the estimate")
	}
}
