package workload

import (
	"testing"
	"testing/quick"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/iosim"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

func TestConstraintsDSS(t *testing.T) {
	base := Metrics{PerQuery: []time.Duration{100, 200, 400}}
	c := Constraints{Relative: 0.5, Baseline: base}
	caps := c.QueryCaps()
	want := []time.Duration{200, 400, 800}
	for i := range caps {
		if caps[i] != want[i] {
			t.Fatalf("cap %d = %v, want %v", i, caps[i], want[i])
		}
	}
	ok := Metrics{PerQuery: []time.Duration{200, 400, 800}}
	if !c.Satisfied(ok) || c.PSR(ok) != 1 {
		t.Fatal("metrics exactly at caps should satisfy")
	}
	bad := Metrics{PerQuery: []time.Duration{201, 400, 800}}
	if c.Satisfied(bad) {
		t.Fatal("one violation should fail the constraint")
	}
	if got := c.PSR(bad); got < 0.66 || got > 0.67 {
		t.Fatalf("PSR = %g, want 2/3", got)
	}
	// Mismatched lengths never satisfy.
	if c.Satisfied(Metrics{PerQuery: []time.Duration{1}}) {
		t.Fatal("length mismatch should fail")
	}
}

func TestConstraintsOLTP(t *testing.T) {
	base := Metrics{Throughput: 1000}
	c := Constraints{Relative: 0.25, Baseline: base}
	if c.ThroughputFloor() != 250 {
		t.Fatalf("floor = %g, want 250", c.ThroughputFloor())
	}
	if !c.Satisfied(Metrics{Throughput: 250}) || c.PSR(Metrics{Throughput: 250}) != 1 {
		t.Fatal("throughput at floor should satisfy")
	}
	if c.Satisfied(Metrics{Throughput: 249}) || c.PSR(Metrics{Throughput: 249}) != 0 {
		t.Fatal("throughput below floor should fail with PSR 0")
	}
}

// Property: PSR is monotone — uniformly slowing every query can never raise
// the PSR.
func TestPSRMonotoneProperty(t *testing.T) {
	base := Metrics{PerQuery: []time.Duration{100, 300, 900, 2700}}
	c := Constraints{Relative: 0.5, Baseline: base}
	f := func(scale1, scale2 uint8) bool {
		s1 := 1 + float64(scale1)/64
		s2 := s1 + float64(scale2)/64
		m1 := Metrics{PerQuery: make([]time.Duration, 4)}
		m2 := Metrics{PerQuery: make([]time.Duration, 4)}
		for i, b := range base.PerQuery {
			m1.PerQuery[i] = time.Duration(float64(b) * s1)
			m2.PerQuery[i] = time.Duration(float64(b) * s2)
		}
		return c.PSR(m2) <= c.PSR(m1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTOCCents(t *testing.T) {
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})
	tab, _ := cat.CreateTable("t", sch, nil)
	cat.SetSize(tab.ID, 10e9)
	box := device.Box1()
	l := catalog.NewUniformLayout(cat, device.HSSD)
	// DSS: C(L) x hours.
	dss, err := TOCCents(Metrics{Elapsed: 30 * time.Minute}, l, cat, box)
	if err != nil {
		t.Fatal(err)
	}
	wantPerHour := box.Device(device.HSSD).PriceCents * 10
	if diff := dss - wantPerHour/2; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("DSS TOC = %g, want %g", dss, wantPerHour/2)
	}
	// OLTP: C(L) / throughput.
	oltp, err := TOCCents(Metrics{Throughput: 1000}, l, cat, box)
	if err != nil {
		t.Fatal(err)
	}
	if diff := oltp - wantPerHour/1000; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("OLTP TOC = %g, want %g", oltp, wantPerHour/1000)
	}
	// Missing class errors.
	bad := catalog.NewUniformLayout(cat, device.HDD)
	if _, err := TOCCents(Metrics{Elapsed: time.Hour}, bad, cat, box); err == nil {
		t.Fatal("class absent from box should fail")
	}
}

func buildTinyDB(t *testing.T) (*engine.DB, *plan.Query) {
	t.Helper()
	db := engine.New(device.Box1(), 64)
	sch := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
	)
	if _, err := db.CreateTable("t", sch, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := db.Load("t", types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	q := &plan.Query{Name: "count", Tables: []string{"t"}, Aggs: []plan.Agg{{Func: plan.Count}}}
	return db, q
}

func TestDSSRunAndEstimator(t *testing.T) {
	db, q := buildTinyDB(t)
	w := &DSS{Name: "w", Queries: []*plan.Query{q, q, q}}
	obs, err := w.RunDetailed(db)
	if err != nil {
		t.Fatal(err)
	}
	m, prof := obs.Metrics, obs.Profile
	if len(m.PerQuery) != 3 || m.Elapsed <= 0 {
		t.Fatalf("metrics wrong: %+v", m)
	}
	if m.PerQuery[0]+m.PerQuery[1]+m.PerQuery[2] != m.Elapsed {
		t.Fatal("per-query times must sum to elapsed for a single stream")
	}
	tab, _ := db.Cat.TableByName("t")
	if prof.Get(tab.ID)[device.SeqRead] == 0 {
		t.Fatal("profile missing scan I/O")
	}
	est := w.Estimator(db)
	pm, err := est.Estimate(db.Layout())
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.PerQuery) != 3 || pm.Elapsed <= 0 {
		t.Fatalf("estimate wrong: %+v", pm)
	}
	// Estimating under a slower class raises the prediction.
	slow, err := est.Estimate(catalog.NewUniformLayout(db.Cat, device.HDDRAID0))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Elapsed <= pm.Elapsed {
		t.Fatal("HDD RAID0 estimate should exceed H-SSD estimate")
	}
	// Profile estimation for a baseline layout works too.
	pw, err := w.Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pw.EstimateProfile(db.Layout())
	if err != nil || p2.Get(tab.ID)[device.SeqRead] == 0 {
		t.Fatalf("EstimateProfile: %v", err)
	}
}

func TestDSSRunDetailed(t *testing.T) {
	db, q := buildTinyDB(t)
	w := &DSS{Name: "w", Queries: []*plan.Query{q, q}}
	obs, err := w.RunDetailed(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.PerQuery) != 2 {
		t.Fatalf("got %d per-query observations, want 2", len(obs.PerQuery))
	}
	tab, _ := db.Cat.TableByName("t")
	// Per-query profiles must sum to the total.
	var sum float64
	for _, qo := range obs.PerQuery {
		sum += qo.Profile.Get(tab.ID)[device.SeqRead]
	}
	if total := obs.Profile.Get(tab.ID)[device.SeqRead]; sum != total {
		t.Fatalf("per-query SR sum %g != total %g", sum, total)
	}
	// Second run of the same scan hits the warm buffer: fewer charges.
	if obs.PerQuery[1].Profile.Get(tab.ID)[device.SeqRead] >= obs.PerQuery[0].Profile.Get(tab.ID)[device.SeqRead] {
		t.Fatal("second identical query should benefit from the buffer pool")
	}
	// The observed estimator reprices the counts exactly at the observed
	// layout.
	est := &ObservedEstimator{Box: db.Box, Concurrency: 1, PerQuery: obs.PerQuery}
	m, err := est.Estimate(db.Layout())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerQuery) != 2 {
		t.Fatal("observed estimator loses queries")
	}
}

func TestProfileEstimator(t *testing.T) {
	db, _ := buildTinyDB(t)
	prof := iosim.NewProfile()
	tab, _ := db.Cat.TableByName("t")
	prof.Add(tab.ID, device.RandRead, 1000)
	stats := RunStats{Txns: 500, Elapsed: time.Second}
	est, err := NewProfileEstimator(db.Box, 1, prof, 100*time.Millisecond, stats, db.Layout())
	if err != nil {
		t.Fatal(err)
	}
	self, err := est.Estimate(db.Layout())
	if err != nil {
		t.Fatal(err)
	}
	// Self-consistency: same layout reproduces the measured throughput.
	wantThr := float64(stats.Txns) / stats.Elapsed.Hours()
	if ratio := self.Throughput / wantThr; ratio < 0.999 || ratio > 1.001 {
		t.Fatalf("self estimate off: %g vs %g", self.Throughput, wantThr)
	}
	slow, err := est.Estimate(catalog.NewUniformLayout(db.Cat, device.HDDRAID0))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Throughput >= self.Throughput {
		t.Fatal("slower storage should predict lower throughput")
	}
	// Unplaceable layout errors.
	if _, err := est.Estimate(catalog.Layout{}); err == nil {
		t.Fatal("empty layout should fail")
	}
}
