package online

import (
	"strings"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/pagestore"
	"dotprov/internal/provision"
	"dotprov/internal/search"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// htapCatalog builds the replication demo database: a large orders table
// with its primary-key index, scanned and point-looked-up at once.
func htapCatalog(t *testing.T) (*catalog.Catalog, map[string]catalog.ObjectID) {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	ids := make(map[string]catalog.ObjectID)
	orders, err := cat.CreateTable("orders", sch, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cat.CreateIndex("orders_pkey", orders.ID, []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetSize(orders.ID, 40e9)
	cat.SetSize(ix.ID, 2e9)
	ids["orders"], ids["orders_pkey"] = orders.ID, ix.ID
	return cat, ids
}

// scanLookupWindow mixes heavy sequential scans with point lookups on the
// same table — the access pattern per-pattern best-replica routing wins on.
func scanLookupWindow(ids map[string]catalog.ObjectID) Window {
	p := iosim.NewProfile()
	p.Add(ids["orders"], device.SeqRead, 5e6)
	p.Add(ids["orders"], device.RandRead, 150000)
	p.Add(ids["orders_pkey"], device.RandRead, 50000)
	return Window{Profile: p, CPU: 100 * time.Millisecond, Elapsed: time.Hour}
}

// lookupWindow is the reverted mix: the scans have faded and only the
// transactional lookups remain, so a second scan copy no longer pays.
func lookupWindow(ids map[string]catalog.ObjectID) Window {
	p := iosim.NewProfile()
	p.Add(ids["orders"], device.RandRead, 150000)
	p.Add(ids["orders_pkey"], device.RandRead, 50000)
	return Window{Profile: p, CPU: 100 * time.Millisecond, Elapsed: time.Hour}
}

// TestManagerReplicatedLifecycle drives the full replicated loop on the
// HTAP box: the mixed scan+lookup profile makes the initial advise grow a
// second scan copy of the orders table, and after the workload reverts to
// lookups only a forced re-advise drops the copy again.
func TestManagerReplicatedLifecycle(t *testing.T) {
	cat, ids := htapCatalog(t)
	m, err := NewManager(Config{
		Cat:         cat,
		Box:         device.BoxHTAP(),
		SLA:         0.5,
		Replication: core.ReplicationConfig{Enabled: true, MaxReplicas: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(scanLookupWindow(ids))
	dec, err := m.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible || dec.Result == nil || dec.SetTo == nil {
		t.Fatalf("replicated advise did not adopt: %+v", dec)
	}
	if dec.Result.MaxCopies() < 2 {
		t.Fatalf("mixed scan+lookup profile on the HTAP box should replicate, got %d copies", dec.Result.MaxCopies())
	}
	if dec.Result.Layout != nil {
		t.Fatal("single-class view of a replicated layout must be nil")
	}
	cs := m.CurrentSetLayout()
	if len(cs) != cat.NumObjects() {
		t.Fatalf("deployed set layout places %d objects, want %d", len(cs), cat.NumObjects())
	}
	if !cs.Equal(dec.SetTo) {
		t.Fatal("deployed set layout must match the adopted decision")
	}
	if len(dec.Migration.Moves) == 0 || dec.Migration.Time <= 0 || dec.Migration.Bytes <= 0 {
		t.Fatalf("growing copies off L0 must price a real migration: %+v", dec.Migration)
	}

	// The workload reverts: lookups only. A forced re-advise must drop the
	// scan copy and collapse back to singletons.
	m.Observe(lookupWindow(ids))
	dec2, err := m.ReAdvise(true)
	if err != nil {
		t.Fatal(err)
	}
	if !dec2.Feasible || dec2.Result == nil {
		t.Fatalf("reverted re-advise did not adopt: %+v", dec2)
	}
	if dec2.Result.MaxCopies() != 1 {
		t.Fatalf("lookup-only profile should not replicate, got %d copies", dec2.Result.MaxCopies())
	}
	if _, single := m.CurrentSetLayout().SingleLayout(); dec2.Result.Layout == nil || !single {
		t.Fatal("all-singleton adoption must restore the single-class view")
	}
	if !dec2.ReAdvised {
		t.Fatal("dropping the scan copy is a layout change")
	}
	if st := m.Stats(); st.ReAdvises != 1 {
		t.Fatalf("ReAdvises = %d, want 1", st.ReAdvises)
	}
}

// TestManagerReplicatedExportRestore: a manager deployed on a genuinely
// replicated layout exports the class sets and a fresh manager restores
// them — the exported record used to carry the (empty) single-class view,
// which its own RestoreState refused. A record holding more copies than
// the restoring manager's cap admits is refused whole.
func TestManagerReplicatedExportRestore(t *testing.T) {
	cat, ids := htapCatalog(t)
	cfg := Config{
		Cat:         cat,
		Box:         device.BoxHTAP(),
		SLA:         0.5,
		Replication: core.ReplicationConfig{Enabled: true, MaxReplicas: 2},
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(scanLookupWindow(ids))
	dec, err := m.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Result.MaxCopies() < 2 {
		t.Fatalf("fixture must deploy a replicated layout, got %d copies", dec.Result.MaxCopies())
	}
	st := m.ExportState()
	if !st.Layout.Equal(m.CurrentSetLayout()) {
		t.Fatalf("exported layout %v, deployed %v", st.Layout, m.CurrentSetLayout())
	}
	wire, err := DecodeManagerState(AppendManagerState(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(wire); err != nil {
		t.Fatalf("a manager must restore its own replicated snapshot: %v", err)
	}
	if !restored.CurrentSetLayout().Equal(m.CurrentSetLayout()) {
		t.Fatal("restored deployment differs from the exported one")
	}
	// Both resume identically: the reverted workload drops the copy.
	m.Observe(lookupWindow(ids))
	restored.Observe(lookupWindow(ids))
	want, err := m.ReAdvise(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.ReAdvise(true)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SetTo.Equal(want.SetTo) || got.Result.TOCCents != want.Result.TOCCents || got.Result.Evaluated != want.Result.Evaluated {
		t.Fatalf("restored manager re-advised differently: %+v vs %+v", got.Result, want.Result)
	}

	single := cfg
	single.Replication = core.ReplicationConfig{}
	capped, err := NewManager(single)
	if err != nil {
		t.Fatal(err)
	}
	if err := capped.RestoreState(wire); err == nil || !strings.Contains(err.Error(), "copies") {
		t.Fatalf("a single-copy manager must refuse a replicated record, got %v", err)
	}
}

// TestManagerReplicatedTransactionalWindow exercises the replica-routed
// profile-estimator path: transactional windows anchor their throughput
// scaling on the deployed set layout's I/O time.
func TestManagerReplicatedTransactionalWindow(t *testing.T) {
	cat, ids := htapCatalog(t)
	m, err := NewManager(Config{
		Cat:         cat,
		Box:         device.BoxHTAP(),
		SLA:         0.5,
		Replication: core.ReplicationConfig{Enabled: true, MaxReplicas: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := scanLookupWindow(ids)
	w.Txns = 200000
	m.Observe(w)
	dec, err := m.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible {
		t.Fatalf("transactional replicated advise infeasible: %+v", dec)
	}
	// Re-advise off the adopted (possibly replicated) deployment: the
	// estimator must build cleanly against the set layout.
	m.Observe(w)
	if _, err := m.ReAdvise(true); err != nil {
		t.Fatal(err)
	}
}

// TestManagerReplicationRejectsLayoutCost: a copy cap above one prices only
// the linear cost model; a cap of one is single-copy placement and takes
// any LayoutCost, enabled or not.
func TestManagerReplicationRejectsLayoutCost(t *testing.T) {
	cat, _ := htapCatalog(t)
	box := device.BoxHTAP()
	_, err := NewManager(Config{
		Cat: cat, Box: box, SLA: 0.5,
		Replication: core.ReplicationConfig{Enabled: true},
		LayoutCost:  func(catalog.ClassSpace) (float64, error) { return 0, nil },
	})
	if err == nil {
		t.Fatal("replication plus LayoutCost must be rejected")
	}
	discrete, err := provision.DiscreteCost(box, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(Config{
		Cat: cat, Box: box, SLA: 0.5,
		Replication: core.ReplicationConfig{Enabled: true, MaxReplicas: 1},
		LayoutCost:  discrete,
	}); err != nil {
		t.Fatalf("a copy cap of one with the discrete cost model must be accepted: %v", err)
	}
}

// TestPlanSetPricing pins the copy-transition cost model: adds are priced
// as a sequential read off the fastest existing member plus a sequential
// write onto each destination, drops are free, and singleton-to-singleton
// transitions cost what relocating the one copy costs.
func TestPlanSetPricing(t *testing.T) {
	cat, ids := testCatalog(t)
	box := device.Box1()
	model := MigrationModel{Cat: cat, Box: box}

	sizeOf := func(name string) int64 {
		for _, o := range cat.Objects() {
			if o.ID == ids[name] {
				return o.SizeBytes
			}
		}
		t.Fatalf("no object %q", name)
		return 0
	}

	// Pure single-copy moves — one copy gained, one dropped — price at the
	// single-class model's numbers (source read + destination write over the
	// unit's pages), pinned to what that model produced before plans were
	// diffs of class sets.
	sf := catalog.NewUniformSetLayout(cat, device.Singleton(device.HSSD))
	to := sf.Clone()
	to[ids["fact"]] = device.Singleton(device.HDDRAID0)
	to[ids["dim"]] = device.Singleton(device.LSSD)
	if p := model.Plan(sf, to); p.Time != 70312545000 || p.Bytes != 21000000000 || len(p.Moves) != 2 {
		t.Fatalf("single-copy plan %+v, want 70.312545s, 21 GB, 2 moves", p)
	}

	// Add-only: one new copy, read off the fastest existing member.
	st := sf.Clone()
	st[ids["fact"]] = device.NewClassSet(device.HSSD, device.HDDRAID0)
	add := model.Plan(sf, st)
	size := sizeOf("fact")
	pages := (size + pagestore.PageSize - 1) / pagestore.PageSize
	want := time.Duration(pages) * (box.Device(device.HSSD).ServiceTime(device.SeqRead, 1) +
		box.Device(device.HDDRAID0).ServiceTime(device.SeqWrite, 1))
	if add.Time != want {
		t.Fatalf("add-copy time %v, want %v", add.Time, want)
	}
	if add.Bytes != size || len(add.Moves) != 1 {
		t.Fatalf("add-copy plan %+v, want %d bytes, 1 move", add, size)
	}

	// Drop-only: the reverse transition moves no bytes and costs nothing,
	// but still records the move.
	drop := model.Plan(st, sf)
	if drop.Time != 0 || drop.Bytes != 0 {
		t.Fatalf("dropping a copy must be free: %+v", drop)
	}
	if len(drop.Moves) != 1 {
		t.Fatalf("dropping a copy is still a layout change: %+v", drop)
	}
}

// TestGateSetHeadroom: the replicated migration gate admits no-move
// candidates unconditionally and rejects copy growth that overruns the SLA
// headroom.
func TestGateSetHeadroom(t *testing.T) {
	cat, ids := testCatalog(t)
	box := device.Box1()
	model := MigrationModel{Cat: cat, Box: box}
	seed := catalog.SingletonSetLayout(catalog.NewUniformLayout(cat, device.HSSD))
	gate := model.Gate(seed, 0.5)

	seedCompact, ok := catalog.CompactFromSetLayout(cat, seed)
	if !ok {
		t.Fatal("compact set conversion failed")
	}
	cons := workload.Constraints{
		Relative: 0.5,
		Baseline: workload.Metrics{Elapsed: 10 * time.Second},
	}
	same := search.Eval{Compact: seedCompact, Metrics: workload.Metrics{Elapsed: 15 * time.Second}}
	if !gate(same, cons) {
		t.Fatal("a no-move candidate must always be admitted")
	}
	grown := seed.Clone()
	grown[ids["fact"]] = device.NewClassSet(device.HSSD, device.HDDRAID0)
	grownCompact, _ := catalog.CompactFromSetLayout(cat, grown)
	// Headroom is 20s - 15s = 5s; copying 20 GB onto the RAID stripe takes
	// far longer than the 2.5s budget.
	tight := search.Eval{Compact: grownCompact, Metrics: workload.Metrics{Elapsed: 15 * time.Second}}
	if gate(tight, cons) {
		t.Fatal("copy growth past the headroom budget must be rejected")
	}
	// With a day of headroom the same growth fits.
	loose := search.Eval{Compact: grownCompact, Metrics: workload.Metrics{Elapsed: 15 * time.Second}}
	roomy := workload.Constraints{Relative: 0.001, Baseline: workload.Metrics{Elapsed: 100 * time.Second}}
	if !gate(loose, roomy) {
		t.Fatal("copy growth within the headroom budget must be admitted")
	}
}
