package catalog

import (
	"strings"
	"testing"
	"testing/quick"

	"dotprov/internal/device"
	"dotprov/internal/types"
)

func demoCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	sch := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
	)
	tab, err := c.CreateTable("customer", sch, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("customer_pkey", tab.ID, []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("i_customer", tab.ID, []string{"name"}, false); err != nil {
		t.Fatal(err)
	}
	sch2 := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	if _, err := c.CreateTable("orders", sch2, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateAux("temp", KindTemp, 1e6); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateAndLookup(t *testing.T) {
	c := demoCatalog(t)
	tab, err := c.TableByName("customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Indexes) != 2 {
		t.Fatalf("customer has %d indexes, want 2", len(tab.Indexes))
	}
	ix, err := c.IndexByName("i_customer")
	if err != nil {
		t.Fatal(err)
	}
	if ix.TableID != tab.ID || ix.Unique {
		t.Fatalf("i_customer metadata wrong: %+v", ix)
	}
	if c.Lookup("nope") != nil {
		t.Fatal("Lookup of missing object should be nil")
	}
	if _, err := c.TableByName("i_customer"); err == nil {
		t.Fatal("TableByName on an index should fail")
	}
}

func TestCreateErrors(t *testing.T) {
	c := demoCatalog(t)
	sch := types.NewSchema(types.Column{Name: "x", Kind: types.KindInt})
	if _, err := c.CreateTable("customer", sch, nil); err == nil {
		t.Fatal("duplicate table name should fail")
	}
	if _, err := c.CreateTable("bad", sch, []string{"missing"}); err == nil {
		t.Fatal("PK on missing column should fail")
	}
	tab, _ := c.TableByName("customer")
	if _, err := c.CreateIndex("bad_ix", tab.ID, []string{"missing"}, false); err == nil {
		t.Fatal("index on missing column should fail")
	}
	if _, err := c.CreateIndex("bad_ix2", 9999, []string{"id"}, false); err == nil {
		t.Fatal("index on missing table should fail")
	}
	if _, err := c.CreateAux("bad_aux", KindTable, 1); err == nil {
		t.Fatal("CreateAux with table kind should fail")
	}
}

func TestSetSizeConsistency(t *testing.T) {
	c := demoCatalog(t)
	tab, _ := c.TableByName("customer")
	c.SetSize(tab.ID, 12345)
	if c.Object(tab.ID).SizeBytes != 12345 {
		t.Fatal("object size not updated")
	}
	tab2, _ := c.TableByName("customer")
	if tab2.SizeBytes != 12345 {
		t.Fatal("table view size not updated")
	}
	ix, _ := c.IndexByName("customer_pkey")
	c.SetSize(ix.ID, 77)
	ix2, _ := c.IndexByName("customer_pkey")
	if ix2.SizeBytes != 77 {
		t.Fatal("index view size not updated")
	}
	if c.TotalSize() != 12345+77+1e6 {
		t.Fatalf("TotalSize = %d", c.TotalSize())
	}
}

func TestGroups(t *testing.T) {
	c := demoCatalog(t)
	gs := c.Groups()
	// customer(+2 idx), orders, temp -> 3 groups.
	if len(gs) != 3 {
		t.Fatalf("got %d groups, want 3", len(gs))
	}
	if gs[0].Size() != 3 {
		t.Fatalf("customer group size = %d, want 3 (table + 2 indexes)", gs[0].Size())
	}
	tab, _ := c.TableByName("customer")
	if gs[0].Objects[0] != tab.ID {
		t.Fatal("table must come first in its group")
	}
	if gs[1].Size() != 1 || gs[2].Size() != 1 {
		t.Fatal("orders and temp should be singletons")
	}
}

func TestObjectsDeterministicOrder(t *testing.T) {
	c := demoCatalog(t)
	objs := c.Objects()
	for i := 1; i < len(objs); i++ {
		if objs[i-1].ID >= objs[i].ID {
			t.Fatal("Objects() not sorted by ID")
		}
	}
	if len(c.Tables()) != 2 || len(c.Indexes()) != 2 {
		t.Fatalf("Tables/Indexes counts wrong: %d/%d", len(c.Tables()), len(c.Indexes()))
	}
	if got := len(c.TableIndexes(objs[0].ID)); got != 2 {
		t.Fatalf("TableIndexes = %d, want 2", got)
	}
}

func TestUniformAndSplitLayouts(t *testing.T) {
	c := demoCatalog(t)
	l := NewUniformLayout(c, device.HSSD)
	if len(l) != 5 {
		t.Fatalf("uniform layout has %d entries, want 5", len(l))
	}
	for _, cls := range l {
		if cls != device.HSSD {
			t.Fatal("uniform layout must use one class")
		}
	}
	s := NewSplitLayout(c, device.LSSD, device.HSSD)
	ix, _ := c.IndexByName("customer_pkey")
	tab, _ := c.TableByName("customer")
	if s[ix.ID] != device.HSSD || s[tab.ID] != device.LSSD {
		t.Fatal("split layout should put indexes on index class and data on data class")
	}
}

func TestLayoutCostAndCapacity(t *testing.T) {
	c := demoCatalog(t)
	tab, _ := c.TableByName("customer")
	c.SetSize(tab.ID, 10e9) // 10 GB
	box := device.Box1()
	l := NewUniformLayout(c, device.HSSD)
	cost, err := l.CostCentsPerHour(c, box)
	if err != nil {
		t.Fatal(err)
	}
	wantApprox := box.Device(device.HSSD).PriceCents * (10 + 0.001) // 10GB + 1MB temp
	if diff := cost - wantApprox; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("cost = %g, want ~%g", cost, wantApprox)
	}
	if err := l.CheckCapacity(c, box); err != nil {
		t.Fatalf("10 GB should fit on an 80 GB H-SSD: %v", err)
	}
	// Shrink the H-SSD below the placed bytes.
	if err := box.SetCapacity(device.HSSD, 5e9); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckCapacity(c, box); err == nil {
		t.Fatal("capacity violation not detected")
	}
	// A layout that references a class missing from the box errors out.
	bad := NewUniformLayout(c, device.HDD) // Box 1 has no plain HDD
	if _, err := bad.CostCentsPerHour(c, box); err == nil {
		t.Fatal("cost with missing class should fail")
	}
	if err := bad.CheckCapacity(c, box); err == nil {
		t.Fatal("capacity check with missing class should fail")
	}
}

func TestLayoutCloneEqual(t *testing.T) {
	c := demoCatalog(t)
	l := NewUniformLayout(c, device.HSSD)
	cl := l.Clone()
	if !l.Equal(cl) {
		t.Fatal("clone should equal original")
	}
	tab, _ := c.TableByName("customer")
	cl[tab.ID] = device.LSSD
	if l.Equal(cl) {
		t.Fatal("modified clone should differ")
	}
	if l[tab.ID] != device.HSSD {
		t.Fatal("clone mutated the original")
	}
	if l.Equal(Layout{}) {
		t.Fatal("layouts of different size should differ")
	}
}

func TestLayoutString(t *testing.T) {
	c := demoCatalog(t)
	l := NewSplitLayout(c, device.LSSD, device.HSSD)
	s := l.String(c)
	if !strings.Contains(s, "H-SSD") || !strings.Contains(s, "customer_pkey") {
		t.Fatalf("layout rendering missing content:\n%s", s)
	}
}

// Property: for any assignment of objects to classes in the box, the layout
// cost equals the sum over classes of price x placed bytes.
func TestLayoutCostProperty(t *testing.T) {
	c := demoCatalog(t)
	objs := c.Objects()
	box := device.Box2()
	classes := box.Classes()
	f := func(assign []uint8, sizes []uint32) bool {
		l := make(Layout)
		for i, o := range objs {
			var a uint8
			if i < len(assign) {
				a = assign[i]
			}
			l[o.ID] = classes[int(a)%len(classes)]
			var sz uint32
			if i < len(sizes) {
				sz = sizes[i]
			}
			c.SetSize(o.ID, int64(sz))
		}
		got, err := l.CostCentsPerHour(c, box)
		if err != nil {
			return false
		}
		var want float64
		for _, o := range objs {
			want += box.Device(l[o.ID]).PriceCents * float64(o.SizeBytes) / 1e9
		}
		diff := got - want
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
