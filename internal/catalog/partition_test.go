package catalog

import (
	"fmt"
	"math/rand"
	"testing"

	"dotprov/internal/device"
	"dotprov/internal/types"
)

// randomCatalogAndStats builds a deterministic pseudo-random catalog with
// tables, indexes and aux objects, plus a pseudo-random extent histogram
// for a subset of objects.
func randomCatalogAndStats(t *testing.T, seed int64) (*Catalog, ExtentStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := New()
	sch := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	stats := ExtentStats{PageBytes: DefaultPageBytes, ByObject: make(map[ObjectID][]Extent)}
	nTables := 2 + rng.Intn(4)
	for i := 0; i < nTables; i++ {
		tab, err := c.CreateTable(fmt.Sprintf("t%d_%d", seed, i), sch, []string{"k"})
		if err != nil {
			t.Fatal(err)
		}
		// Sizes include awkward non-page-aligned values.
		c.SetSize(tab.ID, int64(rng.Intn(4e9))+rng.Int63n(DefaultPageBytes))
		if rng.Intn(2) == 0 {
			ix, err := c.CreateIndex(fmt.Sprintf("t%d_%d_pkey", seed, i), tab.ID, []string{"k"}, true)
			if err != nil {
				t.Fatal(err)
			}
			c.SetSize(ix.ID, int64(rng.Intn(5e8)))
		}
	}
	if _, err := c.CreateAux(fmt.Sprintf("log%d", seed), KindLog, int64(rng.Intn(1e9))); err != nil {
		t.Fatal(err)
	}
	for _, o := range c.Objects() {
		if rng.Intn(3) == 0 {
			continue // some objects stay without statistics
		}
		pages := (o.SizeBytes + DefaultPageBytes - 1) / DefaultPageBytes
		var exts []Extent
		var covered int64
		for covered < pages && len(exts) < 32 {
			run := rng.Int63n(pages/4+2) + 1
			exts = append(exts, Extent{Pages: run, Count: float64(rng.Intn(100000))})
			covered += run
		}
		stats.ByObject[o.ID] = exts
	}
	return c, stats
}

// TestPartitioningRoundTrip is the split/merge property test: for random
// catalogs and histograms, units re-assemble exactly to their object —
// contiguous page cover from 0, exact byte partition — and object layouts
// expand/collapse losslessly.
func TestPartitioningRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		c, stats := randomCatalogAndStats(t, seed)
		pt, err := BuildPartitioning(c, stats, PartitionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pt.UnitCatalog().NumObjects(), pt.NumUnits(); got != want {
			t.Fatalf("seed %d: unit catalog has %d objects, partitioning %d units", seed, got, want)
		}
		for _, o := range c.Objects() {
			us := pt.UnitsOf(o.ID)
			if len(us) == 0 {
				t.Fatalf("seed %d: object %q has no units", seed, o.Name)
			}
			var sz int64
			var page int64
			var heat float64
			for _, uid := range us {
				u := pt.Unit(uid)
				if u.Object != o.ID {
					t.Fatalf("seed %d: unit %q parent mismatch", seed, u.Name)
				}
				if u.StartPage != page {
					t.Fatalf("seed %d: object %q units not contiguous: start %d want %d", seed, o.Name, u.StartPage, page)
				}
				page = u.EndPage
				sz += u.SizeBytes
				heat += u.Heat
				if uo := pt.UnitCatalog().Lookup(u.Name); uo == nil || uo.ID != uid || uo.Kind != o.Kind || uo.SizeBytes != u.SizeBytes {
					t.Fatalf("seed %d: unit %q not mirrored in the unit catalog", seed, u.Name)
				}
			}
			if sz != o.SizeBytes {
				t.Fatalf("seed %d: object %q unit sizes sum to %d, want %d", seed, o.Name, sz, o.SizeBytes)
			}
			wantPages := (o.SizeBytes + DefaultPageBytes - 1) / DefaultPageBytes
			if page != wantPages {
				t.Fatalf("seed %d: object %q units cover %d pages, want %d", seed, o.Name, page, wantPages)
			}
			if heat < 0.999999 || heat > 1.000001 {
				t.Fatalf("seed %d: object %q heats sum to %g", seed, o.Name, heat)
			}
		}
		// Expand/collapse round trip on a random object layout.
		rng := rand.New(rand.NewSource(seed * 31))
		ol := make(Layout)
		for _, o := range c.Objects() {
			ol[o.ID] = device.AllClasses[rng.Intn(len(device.AllClasses))]
		}
		back, ok := pt.CollapseLayout(pt.ExpandLayout(ol))
		if !ok || !back.Equal(ol) {
			t.Fatalf("seed %d: expand/collapse round trip lost the layout", seed)
		}
		// A genuinely split placement must refuse to collapse.
		for _, o := range c.Objects() {
			us := pt.UnitsOf(o.ID)
			if len(us) < 2 {
				continue
			}
			ul := pt.ExpandLayout(ol)
			ul[us[0]] = device.HSSD
			ul[us[1]] = device.HDD
			if _, ok := pt.CollapseLayout(ul); ok {
				t.Fatalf("seed %d: collapse accepted a split object", seed)
			}
			break
		}
	}
}

// TestPartitioningUniformCostParity: a uniform-class partitioned layout
// costs bit-identically to the object-granular layout, on both the map and
// the compiled (dense) pricing paths.
func TestPartitioningUniformCostParity(t *testing.T) {
	box := device.Box1()
	for seed := int64(1); seed <= 10; seed++ {
		c, stats := randomCatalogAndStats(t, seed)
		pt, err := BuildPartitioning(c, stats, PartitionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sizes := c.DenseSizeBytes()
		usizes := pt.UnitCatalog().DenseSizeBytes()
		for _, cls := range box.Classes() {
			ol := NewUniformLayout(c, cls)
			ul := pt.ExpandLayout(ol)
			oc, err := ol.CostCentsPerHour(c, box)
			if err != nil {
				t.Fatal(err)
			}
			uc, err := ul.CostCentsPerHour(pt.UnitCatalog(), box)
			if err != nil {
				t.Fatal(err)
			}
			if oc != uc {
				t.Fatalf("seed %d class %v: map cost %v != %v", seed, cls, uc, oc)
			}
			ocl, ok := CompactFromSetLayout(c, SingletonSetLayout(ol))
			if !ok {
				t.Fatal("object layout must encode")
			}
			ucl, ok := CompactFromSetLayout(pt.UnitCatalog(), SingletonSetLayout(ul))
			if !ok {
				t.Fatal("unit layout must encode")
			}
			odc, _, err := ocl.PriceDense(sizes, box)
			if err != nil {
				t.Fatal(err)
			}
			udc, _, err := ucl.PriceDense(usizes, box)
			if err != nil {
				t.Fatal(err)
			}
			if odc != oc || udc != uc {
				t.Fatalf("seed %d class %v: dense costs diverge (obj %v/%v unit %v/%v)",
					seed, cls, oc, odc, uc, udc)
			}
		}
	}
}

// TestPartitioningOptions: the unit cap and floor hold, identity
// partitioning mirrors the catalog, and hot/cold histograms actually
// split while uniform ones do not.
func TestPartitioningOptions(t *testing.T) {
	c := New()
	sch := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	tab, err := c.CreateTable("facts", sch, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	c.SetSize(tab.ID, 1<<30) // 1 GiB = 131072 pages
	pages := int64(1 << 30 / DefaultPageBytes)

	hotCold := ExtentStats{ByObject: map[ObjectID][]Extent{
		tab.ID: {
			{Pages: pages / 8, Count: 1e6},
			{Pages: pages - pages/8, Count: 1e3},
		},
	}}
	pt, err := BuildPartitioning(c, hotCold, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pt.UnitsOf(tab.ID)); got != 2 {
		t.Fatalf("hot/cold histogram: got %d units, want 2", got)
	}
	hot := pt.Unit(pt.UnitsOf(tab.ID)[0])
	if hot.Heat < 0.99 {
		t.Fatalf("hot unit heat %g, want ~0.999", hot.Heat)
	}

	uniform := ExtentStats{ByObject: map[ObjectID][]Extent{
		tab.ID: {
			{Pages: pages / 4, Count: 1000},
			{Pages: pages / 4, Count: 1100},
			{Pages: pages / 4, Count: 900},
			{Pages: pages / 4, Count: 1050},
		},
	}}
	pt, err = BuildPartitioning(c, uniform, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pt.UnitsOf(tab.ID)); got != 1 {
		t.Fatalf("uniform histogram: got %d units, want 1 (similar neighbours merge)", got)
	}

	// Cap: a staircase histogram with wildly different densities still
	// respects MaxUnitsPerObject.
	var stairs []Extent
	for i := 0; i < 24; i++ {
		stairs = append(stairs, Extent{Pages: pages / 24, Count: float64(int64(1) << uint(i))})
	}
	pt, err = BuildPartitioning(c, ExtentStats{ByObject: map[ObjectID][]Extent{tab.ID: stairs}},
		PartitionOptions{MaxUnitsPerObject: 5, MergeRatio: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pt.UnitsOf(tab.ID)); got > 5 {
		t.Fatalf("unit cap violated: %d units > 5", got)
	}

	// Floor: units never undercut MinUnitBytes (single-unit objects aside).
	pt, err = BuildPartitioning(c, hotCold, PartitionOptions{MinUnitBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range pt.Units() {
		if len(pt.UnitsOf(u.Object)) > 1 && u.SizeBytes < 256<<20 {
			t.Fatalf("unit %q (%d bytes) undercuts the 256 MiB floor", u.Name, u.SizeBytes)
		}
	}

	// Identity partitioning mirrors the catalog object for object.
	id := IdentityPartitioning(c)
	if id.Partitioned() || id.NumUnits() != c.NumObjects() {
		t.Fatal("identity partitioning must mirror the catalog")
	}
	u := id.Unit(id.UnitsOf(tab.ID)[0])
	if u.Name != "facts" || u.SizeBytes != int64(1<<30) {
		t.Fatalf("identity unit %+v does not mirror its object", u)
	}
}

// TestPartitioningAccessors covers the small read API: Base, Unit bounds,
// Pages, SortedUnits and UnitString.
func TestPartitioningAccessors(t *testing.T) {
	c, stats := randomCatalogAndStats(t, 7)
	pt, err := BuildPartitioning(c, stats, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Base() != c {
		t.Fatal("Base lost the source catalog")
	}
	if u := pt.Unit(0); u.Name != "" {
		t.Fatal("Unit(0) must be the zero unit")
	}
	if u := pt.Unit(ObjectID(pt.NumUnits() + 1)); u.Name != "" {
		t.Fatal("out-of-range Unit must be the zero unit")
	}
	for _, u := range pt.Units() {
		if u.Pages() != u.EndPage-u.StartPage {
			t.Fatalf("unit %q: Pages() %d != %d", u.Name, u.Pages(), u.EndPage-u.StartPage)
		}
	}
	ul := pt.ExpandLayout(NewUniformLayout(c, device.HSSD))
	if s := ul.String(pt.UnitCatalog()); s == "" {
		t.Fatal("unit layout rendered nothing")
	}
}

// TestPartitioningSplitObjects: a uniform unit layout splits no object, and
// moving one unit of a multi-unit object to another class splits exactly
// that object.
func TestPartitioningSplitObjects(t *testing.T) {
	c, stats := randomCatalogAndStats(t, 7)
	pt, err := BuildPartitioning(c, stats, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ul := pt.ExpandLayout(NewUniformLayout(c, device.HSSD))
	if n := pt.SplitObjects(ul); n != 0 {
		t.Fatalf("uniform layout splits %d objects, want 0", n)
	}
	for _, o := range c.Objects() {
		if us := pt.UnitsOf(o.ID); len(us) > 1 {
			ul[us[len(us)-1]] = device.HDD
			if n := pt.SplitObjects(ul); n != 1 {
				t.Fatalf("moving one unit of %q splits %d objects, want 1", o.Name, n)
			}
			return
		}
	}
	t.Fatal("fixture has no object split into several units")
}

// TestPartitioningOverflowHeatConserved: access counts recorded past the
// cataloged object size (a table that grew after sizing) fold into the
// final unit instead of vanishing.
func TestPartitioningOverflowHeatConserved(t *testing.T) {
	c := New()
	sch := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	tab, err := c.CreateTable("grown", sch, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	c.SetSize(tab.ID, 512*DefaultPageBytes) // stale: stats cover 1024 pages
	stats := ExtentStats{ByObject: map[ObjectID][]Extent{
		tab.ID: {
			{Pages: 256, Count: 100},
			{Pages: 256, Count: 1},
			{Pages: 512, Count: 5000}, // entirely past the cataloged size
		},
	}}
	pt, err := BuildPartitioning(c, stats, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	us := pt.UnitsOf(tab.ID)
	tail := pt.Unit(us[len(us)-1])
	if tail.Heat < 5001.0/5101.0-1e-9 {
		t.Fatalf("overflow heat not conserved: tail heat %g", tail.Heat)
	}
}
