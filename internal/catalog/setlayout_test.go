package catalog

import (
	"math"
	"strings"
	"testing"

	"dotprov/internal/device"
	"dotprov/internal/types"
)

func replicaFixture(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	for i, sz := range []int64{20e9, 2e9, 1e9, 1e8} {
		tab, err := c.CreateTable(string(rune('a'+i)), sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SetSize(tab.ID, sz)
	}
	return c
}

// TestSetLayoutReplicaPricing: every member of a set is charged the
// object's full size, so a two-copy layout costs the sum of the two
// single-class uniforms.
func TestSetLayoutReplicaPricing(t *testing.T) {
	c := replicaFixture(t)
	box := device.Box1()
	pair := device.NewClassSet(device.LSSD, device.HSSD)
	l := NewUniformSetLayout(c, pair)

	got, err := l.CostCentsPerHour(c, box)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, cls := range []device.Class{device.LSSD, device.HSSD} {
		v, err := NewUniformLayout(c, cls).CostCentsPerHour(c, box)
		if err != nil {
			t.Fatal(err)
		}
		want += v
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("pair cost %v, want sum of singles %v", got, want)
	}

	space := l.SpaceByClass(c)
	if space[device.LSSD] != c.TotalSize() || space[device.HSSD] != c.TotalSize() {
		t.Fatalf("each member must hold the full catalog: %v", space)
	}

	// Dense path agrees with the map path bit for bit.
	cl := CompactUniform(c, pair)
	dense, _, err := cl.PriceDense(c.DenseSizeBytes(), box)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(dense) != math.Float64bits(got) {
		t.Fatalf("dense pair cost %v != map pair cost %v", dense, got)
	}
}

// TestSetLayoutRoundTripsAndKeys: map<->compact round trips, key
// discrimination, and the SingleLayout collapse.
func TestSetLayoutRoundTripsAndKeys(t *testing.T) {
	c := replicaFixture(t)
	pair := device.NewClassSet(device.HDD, device.HSSD)
	l := NewUniformSetLayout(c, pair)
	l[1] = device.Singleton(device.LSSD)

	cl, ok := CompactFromSetLayout(c, l)
	if !ok {
		t.Fatal("compact conversion failed")
	}
	if back := cl.ToSetLayout(); !back.Equal(l) {
		t.Fatalf("round trip lost placements:\n%v\nvs\n%v", back, l)
	}
	if m, ok := cl.At(DenseIndex(1)); !ok || m != device.Singleton(device.LSSD) {
		t.Fatalf("At(0) = %v, %v", m, ok)
	}
	if _, ok := cl.At(-1); ok {
		t.Fatal("At out of range must fail")
	}

	if _, ok := l.SingleLayout(); ok {
		t.Fatal("SingleLayout must fail on a genuinely replicated layout")
	}
	singles := SingletonSetLayout(NewUniformLayout(c, device.HSSD))
	sl, ok := singles.SingleLayout()
	if !ok || !sl.Equal(NewUniformLayout(c, device.HSSD)) {
		t.Fatal("SingleLayout lost the singleton collapse")
	}

	if l.Key() == l.Clone().Key() != l.Equal(l.Clone()) {
		t.Fatal("Key/Equal disagree on a clone")
	}
	other := l.Clone()
	other[2] = other[2].Add(device.LSSD)
	if l.Key() == other.Key() || l.Equal(other) {
		t.Fatal("distinct layouts share a key")
	}
}

// TestSetLayoutErrorPaths: absent classes and capacity overflows are
// reported the same way for one copy or several.
func TestSetLayoutErrorPaths(t *testing.T) {
	c := replicaFixture(t)
	box := device.Box1() // no plain HDD
	l := NewUniformSetLayout(c, device.NewClassSet(device.HDD, device.HSSD))
	if _, err := l.CostCentsPerHour(c, box); err == nil || !strings.Contains(err.Error(), "not present in box") {
		t.Fatalf("want absent-class error, got %v", err)
	}
	cl := CompactUniform(c, device.NewClassSet(device.HDD, device.HSSD))
	if _, fits, err := cl.PriceDense(c.DenseSizeBytes(), box); err == nil || !strings.Contains(err.Error(), "not present in box") || fits {
		t.Fatalf("dense: want absent-class error and no fit, got %v (fits %v)", err, fits)
	}

	huge := New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	tab, err := huge.CreateTable("big", sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	huge.SetSize(tab.ID, box.Device(device.HSSD).CapacityBytes)
	over := NewUniformSetLayout(huge, device.Singleton(device.HSSD))
	if err := over.CheckCapacity(huge, box); err == nil || !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("want over-capacity error, got %v", err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("CompactUniform must panic on the empty set")
		}
	}()
	CompactUniform(c, 0)
}
