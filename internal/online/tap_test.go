package online

import (
	"strings"
	"testing"
	"time"

	"dotprov/internal/bufferpool"
	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/pagestore"
	"dotprov/internal/types"
)

// TestHeapChargesReachTheTapWithTheirPage taps a Collector on an engine
// and writes through a session: inserts that fill several heap pages, then
// updates and deletes. Every heap write names its page, so the heap's
// extent-histogram mass equals its profile count and each bucket holds
// exactly the writes made on its pages.
func TestHeapChargesReachTheTapWithTheirPage(t *testing.T) {
	db := engine.New(device.Box1(), 256)
	schema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	)
	tab, err := db.CreateTable("t", schema, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	col := NewCollector(1)
	const extPages = 2
	col.SetExtentPages(extPages)
	db.SetTap(col)
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	const rows = 120
	pad := strings.Repeat("x", 400)
	for k := range rows {
		if err := sess.Insert("t", types.Tuple{types.NewInt(int64(k)), types.NewString(pad)}); err != nil {
			t.Fatal(err)
		}
	}
	heap := db.Heap(tab.ID)
	if heap.NumPages() < 3 {
		t.Fatalf("%d rows filled %d heap pages, want at least 3", rows, heap.NumPages())
	}
	// One insert charge per row on the page that holds it.
	want := map[uint32]float64{}
	heap.Scan(db.Pool(), bufferpool.NopCharger{}, func(rid pagestore.RID, _ []byte) bool {
		want[rid.Page]++
		return true
	})
	for k := 0; k < rows; k += 7 {
		tuples, rids, err := sess.LookupEq("t_pkey", types.NewInt(int64(k)))
		if err != nil || len(rids) != 1 {
			t.Fatalf("lookup %d: %v %v", k, rids, err)
		}
		upd := tuples[0].Clone()
		upd[1] = types.NewString("short")
		if err := sess.UpdateByRID("t", rids[0], upd); err != nil {
			t.Fatal(err)
		}
		want[rids[0].Page]++
	}
	for k := 3; k < rows; k += 11 {
		_, rids, err := sess.LookupEq("t_pkey", types.NewInt(int64(k)))
		if err != nil || len(rids) != 1 {
			t.Fatalf("lookup %d: %v %v", k, rids, err)
		}
		if err := sess.DeleteByRID("t", rids[0]); err != nil {
			t.Fatal(err)
		}
		want[rids[0].Page]++
	}

	exts := col.ExtentStats().ByObject[tab.ID]
	w := col.Roll(time.Second)
	var profile, mass, total float64
	for _, n := range w.Profile.Get(tab.ID) {
		profile += n
	}
	for _, n := range want {
		total += n
	}
	for b, e := range exts {
		mass += e.Count
		var pages float64
		for p := uint32(b * extPages); p < uint32((b+1)*extPages); p++ {
			pages += want[p]
		}
		if e.Count != pages {
			t.Errorf("bucket %d holds %g charges, its pages took %g", b, e.Count, pages)
		}
	}
	if mass != profile {
		t.Fatalf("heap extent mass %g, profile count %g: some heap charges reached the tap without their page", mass, profile)
	}
	if profile != total {
		t.Fatalf("heap profile count %g, want %g (one per insert, update and delete)", profile, total)
	}
}
