package online

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/types"
)

// testCatalog builds a small synthetic database on Box 1: a large
// scan-prone fact table with an index, a small hot dimension table, and a
// WAL. Sized so the optimizer has real placement trade-offs.
func testCatalog(t *testing.T) (*catalog.Catalog, map[string]catalog.ObjectID) {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	ids := make(map[string]catalog.ObjectID)
	fact, err := cat.CreateTable("fact", sch, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cat.CreateIndex("fact_pkey", fact.ID, []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	dim, err := cat.CreateTable("dim", sch, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	dimIx, err := cat.CreateIndex("dim_pkey", dim.ID, []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := cat.CreateAux("wal", catalog.KindLog, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetSize(fact.ID, 20e9)
	cat.SetSize(ix.ID, 2e9)
	cat.SetSize(dim.ID, 1e9)
	cat.SetSize(dimIx.ID, 0.1e9)
	ids["fact"], ids["fact_pkey"], ids["dim"], ids["dim_pkey"], ids["wal"] =
		fact.ID, ix.ID, dim.ID, dimIx.ID, wal.ID
	return cat, ids
}

// oltpWindow is a transactional mix: random reads through the dim index,
// random writes to fact, sequential WAL writes.
func oltpWindow(ids map[string]catalog.ObjectID) Window {
	p := iosim.NewProfile()
	p.Add(ids["dim"], device.RandRead, 50000)
	p.Add(ids["dim_pkey"], device.RandRead, 50000)
	p.Add(ids["fact"], device.RandWrite, 20000)
	p.Add(ids["fact_pkey"], device.RandWrite, 20000)
	p.Add(ids["wal"], device.SeqWrite, 70000)
	// An hour-long window: re-advising paces itself at the cadence of
	// real drift, and the SLA headroom of an hour can absorb real
	// migrations (the gate prices moves against it).
	return Window{Profile: p, CPU: 50 * time.Millisecond, Elapsed: time.Hour, Txns: 500000}
}

// dssWindow is the drifted mix: the fact table is now scanned
// sequentially, the transactional side has faded.
func dssWindow(ids map[string]catalog.ObjectID) Window {
	p := iosim.NewProfile()
	p.Add(ids["fact"], device.SeqRead, 2e6)
	p.Add(ids["fact_pkey"], device.RandRead, 2000)
	p.Add(ids["dim"], device.RandRead, 5000)
	p.Add(ids["dim_pkey"], device.RandRead, 5000)
	p.Add(ids["wal"], device.SeqWrite, 1000)
	// An hour-long window: re-advising paces itself at the cadence of
	// real drift, and the SLA headroom of an hour can absorb real
	// migrations (the gate prices moves against it).
	return Window{Profile: p, CPU: 50 * time.Millisecond, Elapsed: time.Hour, Txns: 500000}
}

func TestCollectorWindows(t *testing.T) {
	c := NewCollector(3)
	ids := map[string]catalog.ObjectID{"x": 1}
	c.ChargeIO(ids["x"], device.SeqRead, 5)
	c.ChargeIO(ids["x"], device.SeqRead, 3)
	c.ChargeIO(ids["x"], device.RandWrite, 2)
	c.ChargeIO(ids["x"], device.RandWrite, -1) // ignored
	c.AddCPU(10 * time.Millisecond)
	c.AddTxns(7)
	w := c.Roll(time.Second)
	if got := w.Profile.Get(1)[device.SeqRead]; got != 8 {
		t.Fatalf("seq reads = %g, want 8", got)
	}
	if w.CPU != 10*time.Millisecond || w.Txns != 7 || w.Elapsed != time.Second {
		t.Fatalf("window meta wrong: %+v", w)
	}
	if w.IOs() != 10 {
		t.Fatalf("IOs = %g, want 10", w.IOs())
	}
	// Ring capacity: 5 rolls through capacity 3 retain the last 3.
	for i := 0; i < 4; i++ {
		c.ChargeIO(1, device.SeqRead, int64(i+1))
		c.Roll(time.Second)
	}
	if c.Closed() != 3 {
		t.Fatalf("closed = %d, want 3 (ring capacity)", c.Closed())
	}
	if c.Total() != 5 {
		t.Fatalf("total = %d, want 5", c.Total())
	}
	agg, n := c.Aggregate(2)
	if n != 2 {
		t.Fatalf("aggregated %d windows, want 2", n)
	}
	// Last two rolls charged 3 and 4 sequential reads.
	if got := agg.Profile.Get(1)[device.SeqRead]; got != 7 {
		t.Fatalf("aggregate seq reads = %g, want 7", got)
	}
	// Aggregating more than retained clamps.
	if _, n := c.Aggregate(100); n != 3 {
		t.Fatalf("aggregate clamp: %d, want 3", n)
	}
}

// TestConcurrentChargesMatchSerial has eight goroutines, each charging
// one collector through its own tapped accountant, while a ninth reads
// ExtentStats and ExportState throughout; once they have joined, the
// rolled window and the histograms must equal a serial tally of every
// charge, bit for bit, and no export may have seen fewer I/Os than the
// one before it.
func TestConcurrentChargesMatchSerial(t *testing.T) {
	cat, ids := testCatalog(t)
	objs := []catalog.ObjectID{ids["fact"], ids["fact_pkey"], ids["dim"], ids["dim_pkey"], ids["wal"]}
	layout := catalog.NewUniformLayout(cat, device.HSSD)
	const workers, ops, extPages = 8, 4000, 32
	type op struct {
		id      catalog.ObjectID
		t       device.IOType
		page, n int64
		located bool
	}
	want := newSerialTally(4, extPages)
	scripts := make([][]op, workers)
	for w := range scripts {
		rng := rand.New(rand.NewPCG(uint64(w), 8))
		for range ops {
			o := op{
				id:      objs[rng.IntN(len(objs))],
				t:       device.AllIOTypes[rng.IntN(len(device.AllIOTypes))],
				page:    rng.Int64N(8192),
				n:       1 + rng.Int64N(3),
				located: rng.IntN(4) != 0,
			}
			scripts[w] = append(scripts[w], o)
			want.charge(o.id, o.t, o.page, o.n, o.located)
		}
		want.cur.CPU += time.Duration(w+1) * time.Millisecond
		want.cur.Txns += int64(w + 1)
	}

	c := NewCollector(4)
	c.SetExtentPages(extPages)
	accts := make([]*iosim.Accountant, workers)
	for w := range accts {
		a, err := iosim.NewAccountant(device.Box1(), layout, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		a.SetTap(c)
		accts[w] = a
	}
	done := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		last := -1.0
		for {
			_ = c.ExtentStats()
			st := c.ExportState()
			if ios := st.Cur.IOs(); ios < last {
				t.Errorf("export saw %v I/Os after an earlier one saw %v", ios, last)
			} else {
				last = ios
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range scripts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := accts[w]
			for _, o := range scripts[w] {
				if o.located {
					a.ChargePageIO(o.id, o.t, o.page, o.n)
				} else {
					a.ChargeIO(o.id, o.t, o.n)
				}
			}
			c.AddCPU(time.Duration(w+1) * time.Millisecond)
			c.AddTxns(int64(w + 1))
		}()
	}
	wg.Wait()
	close(done)
	<-readerDone

	if err := sameExtentStats(c.ExtentStats(), want); err != nil {
		t.Fatalf("extent stats: %v", err)
	}
	if err := sameWindow(c.Roll(time.Second), want.roll(time.Second)); err != nil {
		t.Fatalf("rolled window: %v", err)
	}
}

// TestObserveLeavesWindowUntouched: Observe keeps the window it is handed,
// not a copy, which is sound only because nothing the collector does
// writes a retained window. The same window observed twice and aggregated —
// and the aggregate then scaled — must still deep-equal a copy taken
// before it was handed over.
func TestObserveLeavesWindowUntouched(t *testing.T) {
	_, ids := testCatalog(t)
	w := oltpWindow(ids)
	before := w.Clone()
	c := NewCollector(4)
	c.Observe(w)
	c.Observe(w)
	agg, n := c.Aggregate(2)
	if n != 2 || agg.Txns != 2*w.Txns || agg.Profile.Get(ids["wal"])[device.SeqWrite] != 2*w.Profile.Get(ids["wal"])[device.SeqWrite] {
		t.Fatalf("aggregate of the window twice: %d windows, %+v", n, agg)
	}
	agg.Profile.Scale(10)
	if !reflect.DeepEqual(w, before) {
		t.Fatalf("the observed window changed:\nnow    %+v\nbefore %+v", w, before)
	}
}

func TestDetectorNoDriftOnIdenticalAndScaled(t *testing.T) {
	cat, ids := testCatalog(t)
	box := device.Box1()
	layout := catalog.NewUniformSetLayout(cat, device.Singleton(device.HSSD))
	det := Detector{Box: box, Concurrency: 1}

	w := oltpWindow(ids)
	dr, err := det.Compare(w, w.Clone(), layout)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Drifted || dr.Divergence != 0 {
		t.Fatalf("identical windows drifted: %+v", dr)
	}
	if dr.RefFingerprint != dr.ObsFingerprint {
		t.Fatal("identical windows must fingerprint equal")
	}

	// Double the counts over double the elapsed time: the rate is the
	// same, so rate normalization must see (almost) no drift.
	scaled := w.Clone()
	scaled.Profile.Scale(2)
	scaled.Elapsed = 2 * w.Elapsed
	scaled.Txns = 2 * w.Txns
	dr, err = det.Compare(w, scaled, layout)
	if err != nil {
		t.Fatal(err)
	}
	if dr.RefFingerprint == dr.ObsFingerprint {
		t.Fatal("scaled window should fingerprint differently")
	}
	if dr.Drifted || dr.Divergence > 1e-9 {
		t.Fatalf("rate-identical window drifted: divergence %g", dr.Divergence)
	}
}

func TestDetectorFiresOnMixShift(t *testing.T) {
	cat, ids := testCatalog(t)
	box := device.Box1()
	layout := catalog.NewUniformSetLayout(cat, device.Singleton(device.HSSD))
	det := Detector{Box: box, Concurrency: 1}
	dr, err := det.Compare(oltpWindow(ids), dssWindow(ids), layout)
	if err != nil {
		t.Fatal(err)
	}
	if !dr.Drifted {
		t.Fatalf("mix shift not detected: divergence %g", dr.Divergence)
	}
	if math.IsInf(dr.Divergence, 1) || dr.Divergence <= DefaultDriftThreshold {
		t.Fatalf("implausible divergence %g", dr.Divergence)
	}

	// A mixed single-copy deployment, pinned to the bits the single-class
	// detector produced before drift was judged over class sets: one copy
	// per unit is the singleton case of replica routing, not a second model.
	mixed := catalog.SingletonSetLayout(catalog.Layout{
		ids["fact"]: device.HDDRAID0, ids["fact_pkey"]: device.LSSD,
		ids["dim"]: device.HSSD, ids["dim_pkey"]: device.HSSD, ids["wal"]: device.LSSD,
	})
	det = Detector{Box: box}
	single, err := det.Compare(oltpWindow(ids), dssWindow(ids), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(single.Divergence); got != 0x3ff116108f622ce2 || !single.Drifted {
		t.Fatalf("single-copy divergence %v (%#x), want bits 0x3ff116108f622ce2", single.Divergence, got)
	}
	// Replicating the fact table on {HDD RAID 0, H-SSD} routes its
	// sequential reads to the H-SSD, so the scan-heavy drift weighs
	// differently against its reference time.
	mixed[ids["fact"]] = device.NewClassSet(device.HDDRAID0, device.HSSD)
	repl, err := det.Compare(oltpWindow(ids), dssWindow(ids), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(repl.Divergence); got != 0x3ff05e6e92feb6fb {
		t.Fatalf("replica-routed divergence %v (%#x), want bits 0x3ff05e6e92feb6fb", repl.Divergence, got)
	}
	// A copy on a class the box does not carry is an error.
	mixed[ids["fact"]] = device.NewClassSet(device.HDD, device.HSSD) // Box 1 has no plain HDD
	if _, err := det.Compare(oltpWindow(ids), dssWindow(ids), mixed); err == nil {
		t.Fatal("set member absent from the box must error")
	}
}

func TestDetectorAbstainsOnThinWindows(t *testing.T) {
	cat, ids := testCatalog(t)
	box := device.Box1()
	layout := catalog.NewUniformSetLayout(cat, device.Singleton(device.HSSD))
	det := Detector{Box: box}
	thin := Window{Profile: iosim.NewProfile(), Elapsed: time.Second}
	thin.Profile.Add(ids["dim"], device.RandRead, 0.5)
	dr, err := det.Compare(oltpWindow(ids), thin, layout)
	if err != nil {
		t.Fatal(err)
	}
	if !dr.Thin || dr.Drifted {
		t.Fatalf("thin window should abstain: %+v", dr)
	}
}

func TestMigrationPlanAndGate(t *testing.T) {
	cat, ids := testCatalog(t)
	box := device.Box1()
	m := MigrationModel{Cat: cat, Box: box}
	from := catalog.NewUniformSetLayout(cat, device.Singleton(device.HSSD))
	to := from.Clone()
	to[ids["fact"]] = device.Singleton(device.HDDRAID0)

	p := m.Plan(from, to)
	if len(p.Moves) != 1 || p.Bytes != 20e9 {
		t.Fatalf("plan = %+v, want 1 move of 20 GB", p)
	}
	if p.Time <= 0 {
		t.Fatal("migration of 20 GB must cost time")
	}
	// Moving everything costs strictly more.
	all := catalog.NewUniformSetLayout(cat, device.Singleton(device.HDDRAID0))
	pAll := m.Plan(from, all)
	if pAll.Time <= p.Time || pAll.Bytes <= p.Bytes {
		t.Fatalf("full migration (%v) should dominate one object (%v)", pAll, p)
	}
	if m.Plan(from, from).Time != 0 {
		t.Fatal("identity migration must be free")
	}
}
