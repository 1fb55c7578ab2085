package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/online"
	"dotprov/internal/serve"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, wl := range []string{wlAdviseSmall, wlAdvisePartitioned, wlAdviseReplicated, wlProvisionSweep} {
		a, err := genAdvise(wl, 1, 0, 5, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genAdvise(wl, 1, 0, 5, 6)
		if !bytes.Equal(a.body, b.body) {
			t.Errorf("%s: equal (seed, client, op) gave different bodies", wl)
		}
		for name, other := range map[string][3]int{"seed": {2, 0, 5}, "client": {1, 1, 5}, "op": {1, 0, 6}} {
			c, _ := genAdvise(wl, int64(other[0]), other[1], other[2], 6)
			if bytes.Equal(a.body, c.body) {
				t.Errorf("%s: a different %s gave the same body", wl, name)
			}
		}
	}
	enc := func(seed int64, tenant, visit, batch, phase int) []byte {
		return online.EncodeFrames(fleetBatch(seed, tenant, visit, batch, phase))
	}
	if !bytes.Equal(enc(1, 3, 2, 1, 1), enc(1, 3, 2, 1, 1)) {
		t.Error("equal (seed, tenant, visit, batch) gave different frames")
	}
	for name, other := range map[string][5]int{"seed": {2, 3, 2, 1, 1}, "visit": {1, 3, 3, 1, 1}, "batch": {1, 3, 2, 2, 1}, "phase": {1, 3, 2, 1, 0}} {
		if bytes.Equal(enc(1, 3, 2, 1, 1), enc(int64(other[0]), other[1], other[2], other[3], other[4])) {
			t.Errorf("a different %s gave the same frames", name)
		}
	}
	d1, _ := json.Marshal(fleetDefine(9))
	d2, _ := json.Marshal(fleetDefine(9))
	if !bytes.Equal(d1, d2) {
		t.Error("a tenant's defining observe is not reproducible")
	}
}

// The wire's partitioner merges adjacent extents whose heat densities are
// within 4x of each other and caps an object at 8 units: the generated
// extents must survive both, or the workload silently searches fewer units
// than its name says.
func TestExtentTablesReachEveryDeclaredUnit(t *testing.T) {
	for _, c := range []struct {
		wl     string
		tables int
	}{{wlAdvisePartitioned, partitionedTables}, {wlAdviseReplicated, replicatedTables}} {
		for seed := int64(1); seed <= 3; seed++ {
			in, err := genAdvise(c.wl, seed, 1, 17, c.tables)
			if err != nil {
				t.Fatal(err)
			}
			var req serve.AdviseRequest
			if err := json.Unmarshal(in.body, &req); err != nil {
				t.Fatal(err)
			}
			m, err := buildModel(req.Workload)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := m.partitioning()
			if err != nil {
				t.Fatal(err)
			}
			if pt.NumUnits() != in.units || in.units != 9*c.tables {
				t.Errorf("%s seed %d: partitioning has %d units, the generator declared %d (want %d)", c.wl, seed, pt.NumUnits(), in.units, 9*c.tables)
			}
		}
	}
	if n := 9 * partitionedTables; n != 540 {
		t.Errorf("advise_partitioned declares %d units, its contract says 540", n)
	}
}

// Object lists must fit the box's most expensive class, or every answer is
// a fast 200 with feasible=false.
func TestGeneratedDatabasesFitTheirBox(t *testing.T) {
	fits := func(name, boxName string, spec serve.WorkloadSpec) {
		t.Helper()
		box, err := resolveBox(boxName)
		if err != nil {
			t.Fatal(err)
		}
		m, err := buildModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := catalog.NewUniformLayout(m.cat, box.MostExpensive().Class).CheckCapacity(m.cat, box); err != nil {
			t.Errorf("%s: does not fit %s's most expensive class: %v", name, boxName, err)
		}
	}
	for op := 0; op < 64; op++ {
		r := genAdviseSmall(3, op%2, op)
		fits(wlAdviseSmall, r.Box, r.Workload)
	}
	for op := 0; op < 4; op++ {
		p := genAdvisePartitioned(3, 0, op, partitionedTables)
		fits(wlAdvisePartitioned, p.Box, p.Workload)
		r := genAdviseReplicated(3, 0, op, replicatedTables)
		fits(wlAdviseReplicated, r.Box, r.Workload)
	}
	for k := 0; k < fleetShapes; k++ {
		fits(wlFleetOnline, fleetBox, fleetDefine(k).Workload)
	}
	if n := len(sweepGrid().Devices); n != 3 || sweepCandidates != 34 {
		t.Errorf("sweep grid has %d axes and %d candidates, want 3 and 34", n, sweepCandidates)
	}
}

func TestFleetPhasesSwapTheHotHalf(t *testing.T) {
	a, b := fleetPhaseWindow(2, 0), fleetPhaseWindow(2, 1)
	for tbl := 0; tbl < 8; tbl++ {
		lookedUpA, lookedUpB := a.io[2*tbl][1] > 0, b.io[2*tbl][1] > 0
		if lookedUpA == lookedUpB || lookedUpA != (tbl < 4) {
			t.Errorf("table %d: looked up in phase 0=%v, phase 1=%v", tbl, lookedUpA, lookedUpB)
		}
	}
	if len(fleetObjectsSpec(0)) != fleetObjects {
		t.Errorf("a tenant declares %d objects, want %d", len(fleetObjectsSpec(0)), fleetObjects)
	}
}
