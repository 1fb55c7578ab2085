package device

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// TestDerivedPricesMatchTable1 cross-checks the price derivation from
// Table 2 hardware data against the published Table 1 prices. The SSD
// classes match to within rounding; the HDD classes land within 10% because
// the paper does not fully specify how it averaged the spinning disk's
// read/write/idle power.
func TestDerivedPricesMatchTable1(t *testing.T) {
	for _, c := range AllClasses {
		d := New(c)
		want := Table1PriceCents[c]
		rel := math.Abs(d.PriceCents-want) / want
		if rel > 0.10 {
			t.Errorf("%v: derived price %.4g cent/GB/h, Table 1 says %.4g (rel err %.1f%%)",
				c, d.PriceCents, want, rel*100)
		}
	}
}

func TestPriceOrdering(t *testing.T) {
	// Table 1's first row is sorted cheapest to most expensive.
	prev := -1.0
	for _, c := range AllClasses {
		p := New(c).PriceCents
		if p <= prev {
			t.Fatalf("prices not strictly increasing at %v: %g <= %g", c, p, prev)
		}
		prev = p
	}
}

func TestServiceTimeCalibrationPoints(t *testing.T) {
	d := New(HDD)
	if got, want := d.ServiceTime(RandRead, 1), time.Duration(13.32*float64(time.Millisecond)); got != want {
		t.Errorf("HDD RR @1 = %v, want %v", got, want)
	}
	if got, want := d.ServiceTime(RandRead, 300), time.Duration(8.903*float64(time.Millisecond)); got != want {
		t.Errorf("HDD RR @300 = %v, want %v", got, want)
	}
	// Clamping outside the calibrated range.
	if d.ServiceTime(RandRead, 0) != d.ServiceTime(RandRead, 1) {
		t.Error("concurrency below 1 should clamp to the c=1 point")
	}
	if d.ServiceTime(RandRead, 1000) != d.ServiceTime(RandRead, 300) {
		t.Error("concurrency above 300 should clamp to the c=300 point")
	}
}

// Property: interpolated service times stay within the calibrated envelope
// for every class, I/O type and concurrency.
func TestServiceTimeWithinEnvelopeProperty(t *testing.T) {
	devs := make([]*Device, 0, len(AllClasses))
	for _, c := range AllClasses {
		devs = append(devs, New(c))
	}
	f := func(ci uint8, ti uint8, conc uint16) bool {
		d := devs[int(ci)%len(devs)]
		ty := AllIOTypes[int(ti)%len(AllIOTypes)]
		got := d.ServiceTime(ty, int(conc))
		lo := d.ServiceTime(ty, 1)
		hi := d.ServiceTime(ty, 300)
		if lo > hi {
			lo, hi = hi, lo
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTable1Ratios(t *testing.T) {
	// The evaluation's qualitative arguments (paper §4.4.1) rest on these
	// ratios; assert them so a calibration typo cannot silently break the
	// reproduced shapes.
	hssd, lssdR, hddR, lssd := New(HSSD), New(LSSDRAID0), New(HDDRAID0), New(LSSD)

	// "The SSD RAID 0 achieves SR I/O performance comparable to H-SSD (x1.3)
	// with significantly lower storage cost (x0.056)."
	srRatio := lssdR.ServiceTimeMs(SeqRead, 1) / hssd.ServiceTimeMs(SeqRead, 1)
	if srRatio < 1.2 || srRatio > 1.4 {
		t.Errorf("L-SSD RAID0 / H-SSD SR ratio = %.2f, paper says ~1.3", srRatio)
	}
	costRatio := lssdR.PriceCents / hssd.PriceCents
	if costRatio < 0.05 || costRatio > 0.062 {
		t.Errorf("L-SSD RAID0 / H-SSD price ratio = %.3f, paper says ~0.056", costRatio)
	}

	// "The HDD RAID 0 can be similarly compared with the L-SSD (x1.36 faster
	// at only x0.107 of the storage cost)."
	srRatio2 := hddR.ServiceTimeMs(SeqRead, 1) / lssd.ServiceTimeMs(SeqRead, 1)
	if srRatio2 < 1.2 || srRatio2 > 1.5 {
		t.Errorf("HDD RAID0 / L-SSD SR ratio = %.2f, paper says ~1.36", srRatio2)
	}
	costRatio2 := hddR.PriceCents / lssd.PriceCents
	if costRatio2 < 0.09 || costRatio2 > 0.12 {
		t.Errorf("HDD RAID0 / L-SSD price ratio = %.3f, paper says ~0.107", costRatio2)
	}

	// H-SSD random reads are >100x faster than HDD's.
	hdd := New(HDD)
	if hdd.ServiceTimeMs(RandRead, 1)/hssd.ServiceTimeMs(RandRead, 1) < 100 {
		t.Error("H-SSD should be >100x faster than HDD for random reads")
	}

	// L-SSD random writes are terrible (worse than HDD) - drives the TPC-C
	// observation that the plain L-SSD is seldom used.
	if lssd.ServiceTimeMs(RandWrite, 1) < hdd.ServiceTimeMs(RandWrite, 1) {
		t.Error("L-SSD RW should be slower than HDD RW (Table 1)")
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range AllClasses {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("floppy"); err == nil {
		t.Error("ParseClass of unknown class should fail")
	}
	if c, err := ParseClass("hssd"); err != nil || c != HSSD {
		t.Errorf("ParseClass(hssd) = %v, %v", c, err)
	}
}

func TestIOTypeHelpers(t *testing.T) {
	if !SeqRead.IsRead() || !RandRead.IsRead() {
		t.Error("reads should report IsRead")
	}
	if SeqWrite.IsRead() || RandWrite.IsRead() {
		t.Error("writes should not report IsRead")
	}
	names := map[IOType]string{SeqRead: "SR", RandRead: "RR", SeqWrite: "SW", RandWrite: "RW"}
	for ty, want := range names {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
}

func TestBoxConfigurations(t *testing.T) {
	b1, b2 := Box1(), Box2()
	if b1.Device(HDDRAID0) == nil || b1.Device(LSSD) == nil || b1.Device(HSSD) == nil {
		t.Error("Box 1 must have HDD RAID 0, L-SSD, H-SSD")
	}
	if b1.Device(HDD) != nil {
		t.Error("Box 1 must not have a plain HDD")
	}
	if b2.Device(HDD) == nil || b2.Device(LSSDRAID0) == nil || b2.Device(HSSD) == nil {
		t.Error("Box 2 must have HDD, L-SSD RAID 0, H-SSD")
	}
	if b1.MostExpensive().Class != HSSD || b2.MostExpensive().Class != HSSD {
		t.Error("H-SSD is the most expensive class in both boxes")
	}
	if b1.Cheapest().Class != HDDRAID0 || b2.Cheapest().Class != HDD {
		t.Error("cheapest classes wrong")
	}
}

// TestBoxServiceTimes: the table holds each carried class's own
// ServiceTime at the concurrency, zero rows for the classes the box lacks,
// and the first device of a class listed twice, as Box.Device answers.
func TestBoxServiceTimes(t *testing.T) {
	for _, b := range []*Box{Box1(), Box2(), BoxHTAP()} {
		for _, conc := range []int{0, 1, 8, 300, 1000} {
			svc := b.ServiceTimes(conc)
			for _, c := range AllClasses {
				d := b.Device(c)
				if b.Carried().Has(c) != (d != nil) {
					t.Fatalf("%s: Carried has %v = %v, Device = %v", b.Name, c, b.Carried().Has(c), d)
				}
				for _, typ := range AllIOTypes {
					var want time.Duration
					if d != nil {
						want = d.ServiceTime(typ, conc)
					}
					if svc[c][typ] != want {
						t.Fatalf("%s c=%d: %v %v = %v, want %v", b.Name, conc, c, typ, svc[c][typ], want)
					}
				}
			}
		}
	}
	stripe := BoxHTAP().Device(HDD)
	twice := NewBoxOf("twice", stripe, New(HSSD), New(HDD))
	if got := twice.ServiceTimes(1)[HDD][SeqRead]; got != stripe.ServiceTime(SeqRead, 1) {
		t.Fatalf("a class listed twice reads %v, want its first device's %v", got, stripe.ServiceTime(SeqRead, 1))
	}
	if got, want := twice.Carried(), NewClassSet(HDD, HSSD); got != want {
		t.Fatalf("Carried = %v, want %v", got, want)
	}
}

func TestBoxSetCapacityAndClone(t *testing.T) {
	b := Box1()
	if err := b.SetCapacity(HDDRAID0, 24e9); err != nil {
		t.Fatal(err)
	}
	if b.Device(HDDRAID0).CapacityBytes != 24e9 {
		t.Fatal("capacity override not applied")
	}
	if err := b.SetCapacity(HDD, 1); err == nil {
		t.Fatal("setting capacity of a class not in the box should fail")
	}
	cl := b.Clone()
	if err := cl.SetCapacity(HDDRAID0, 5); err != nil {
		t.Fatal(err)
	}
	if b.Device(HDDRAID0).CapacityBytes != 24e9 {
		t.Fatal("Clone must not share device state")
	}
}

func TestSortedByPrice(t *testing.T) {
	b := Box2()
	s := b.SortedByPrice()
	for i := 1; i < len(s); i++ {
		if s[i-1].PriceCents > s[i].PriceCents {
			t.Fatal("SortedByPrice not sorted")
		}
	}
	if s[0].Class != HDD || s[len(s)-1].Class != HSSD {
		t.Fatalf("Box 2 price order wrong: %v", s)
	}
}

func TestDefaultCapacities(t *testing.T) {
	if got := New(HDD).CapacityBytes; got != 500e9 {
		t.Errorf("HDD capacity = %d, want 500e9", got)
	}
	if got := New(HDDRAID0).CapacityBytes; got != 1000e9 {
		t.Errorf("HDD RAID0 capacity = %d, want 1000e9", got)
	}
	if got := New(HSSD).CapacityBytes; got != 80e9 {
		t.Errorf("H-SSD capacity = %d, want 80e9", got)
	}
	if got := New(LSSDRAID0).CapacityBytes; got != 256e9 {
		t.Errorf("L-SSD RAID0 capacity = %d, want 256e9", got)
	}
}
