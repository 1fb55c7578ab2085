package engine

import (
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/types"
)

// TestWritePathAllocations pins the DML path to allocating only what it
// keeps. On an all-numeric table with a primary key and a secondary index,
// once the session's and the DB's scratch have grown: a one-row LookupEq,
// a non-key UpdateByRID and a DeleteByRID allocate nothing, and Session.Insert
// averages at most one allocation per index plus one — the key each tree
// keeps, and the pages, leaves and slices that grow now and then.
func TestWritePathAllocations(t *testing.T) {
	db := New(device.Box1(), 256)
	sch := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "grp", Kind: types.KindInt},
		types.Column{Name: "val", Kind: types.KindFloat},
	)
	if _, err := db.CreateTable("t", sch, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("t_grp", "t", []string{"grp"}, false); err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	row := func(i int) types.Tuple {
		return types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 50)), types.NewFloat(float64(i))}
	}
	for i := 0; i < rows; i++ {
		if err := db.Load("t", row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	lookup := func() {
		tus, _, err := sess.LookupEq("t_pkey", types.NewInt(int64(next%rows)))
		if err != nil || len(tus) != 1 {
			t.Fatalf("lookup %d: %v %v", next%rows, tus, err)
		}
		next++
	}
	update := func() {
		tus, rids, err := sess.LookupEq("t_pkey", types.NewInt(int64(next%rows)))
		if err != nil || len(tus) != 1 {
			t.Fatalf("lookup %d: %v %v", next%rows, tus, err)
		}
		tus[0][2] = types.NewFloat(tus[0][2].F + 1)
		if err := sess.UpdateByRID("t", rids[0], tus[0]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	del := func() {
		_, rids, err := sess.LookupEq("t_pkey", types.NewInt(int64(next)))
		if err != nil || len(rids) != 1 {
			t.Fatalf("lookup %d: %v %v", next, rids, err)
		}
		if err := sess.DeleteByRID("t", rids[0]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// Warm up: grow the scratch and bring the pages in.
	for i := 0; i < rows; i++ {
		lookup()
		update()
	}
	for _, c := range []struct {
		name string
		op   func()
	}{{"LookupEq", lookup}, {"UpdateByRID", update}, {"DeleteByRID", del}} {
		next = 0
		if got := testing.AllocsPerRun(200, c.op); got != 0 {
			t.Errorf("%s allocates %.2f per call, want 0", c.name, got)
		}
	}

	next = rows
	insert := func() {
		if err := sess.Insert("t", row(next)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	const indexes = 2
	if got, limit := testing.AllocsPerRun(1000, insert), float64(indexes+1); got > limit {
		t.Errorf("Insert allocates %.2f per row over 1,000 rows, want at most %g (one per index plus one)", got, limit)
	}
}
