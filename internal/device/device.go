// Package device models the five storage classes evaluated in the paper
// (Table 1 and Table 2): a hard disk drive, a two-disk HDD RAID 0, a low-end
// MLC SATA SSD, a two-drive L-SSD RAID 0, and a high-end PCIe SLC SSD.
//
// The paper measured per-I/O service times end-to-end from inside PostgreSQL
// under 1 and 300 concurrent DB threads (paper §3.5.1) and derived storage
// prices in cent/GB/hour by amortising the purchase cost over 36 months and
// charging $0.07/kWh for power (paper §2.1, §4.1). We do not have the
// physical drives, so this package carries the paper's published calibration
// numbers; the simulator charges these times against a virtual clock. Every
// ratio the evaluation depends on (RAID 0 sequential bandwidth per dollar,
// the H-SSD's 100x random-read advantage, the L-SSD's poor random writes) is
// therefore reproduced exactly.
package device

import (
	"fmt"
	"math"
	"time"
)

// Class identifies one of the storage classes.
type Class uint8

// The five storage classes of Table 1, cheapest first: single HDD,
// two-disk HDD RAID 0, low-end MLC SATA SSD, two-drive L-SSD RAID 0, and
// the high-end PCIe SLC H-SSD.
const (
	HDD Class = iota
	HDDRAID0
	LSSD
	LSSDRAID0
	HSSD
	numClasses
)

// AllClasses lists every storage class in Table 1 order (cheapest first).
var AllClasses = []Class{HDD, HDDRAID0, LSSD, LSSDRAID0, HSSD}

// NumClasses is the number of storage classes. Class values are dense in
// [0, NumClasses), so they can index fixed-width tables (per-class service
// times and byte accumulators) and number the bits of a ClassSet.
const NumClasses = int(numClasses)

// ValidClass reports whether c is one of the defined storage classes.
func ValidClass(c Class) bool { return c < numClasses }

// String renders the class under its Table 1 name (e.g. "H-SSD").
func (c Class) String() string {
	switch c {
	case HDD:
		return "HDD"
	case HDDRAID0:
		return "HDD RAID 0"
	case LSSD:
		return "L-SSD"
	case LSSDRAID0:
		return "L-SSD RAID 0"
	case HSSD:
		return "H-SSD"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// ParseClass maps a user-facing name to a Class.
func ParseClass(s string) (Class, error) {
	for _, c := range AllClasses {
		if c.String() == s {
			return c, nil
		}
	}
	switch s {
	case "hdd":
		return HDD, nil
	case "hdd-raid0":
		return HDDRAID0, nil
	case "lssd":
		return LSSD, nil
	case "lssd-raid0":
		return LSSDRAID0, nil
	case "hssd":
		return HSSD, nil
	}
	return 0, fmt.Errorf("device: unknown storage class %q", s)
}

// IOType enumerates the four access patterns the paper's cost model uses
// (set R in §3.3). Reads are charged per page I/O; writes per row, matching
// the units of Table 1.
type IOType uint8

// The four access patterns; NumIOTypes sizes dense per-type tables.
const (
	SeqRead IOType = iota
	RandRead
	SeqWrite
	RandWrite
	NumIOTypes = 4
)

// AllIOTypes lists the I/O types in Table 1 order.
var AllIOTypes = []IOType{SeqRead, RandRead, SeqWrite, RandWrite}

// String renders the I/O type under its Table 1 abbreviation (SR, RR,
// SW, RW).
func (t IOType) String() string {
	switch t {
	case SeqRead:
		return "SR"
	case RandRead:
		return "RR"
	case SeqWrite:
		return "SW"
	case RandWrite:
		return "RW"
	default:
		return fmt.Sprintf("IOType(%d)", uint8(t))
	}
}

// IsRead reports whether the I/O type is a read.
func (t IOType) IsRead() bool { return t == SeqRead || t == RandRead }

// Spec carries the hardware data of Table 2 plus the RAID composition used
// to build the two RAID 0 classes (two identical drives behind a Dell
// SAS6/iR controller: $110, 8.25 W, per paper §4.1).
type Spec struct {
	Brand       string
	Model       string
	FlashType   string // "MLC", "SLC" or "" for spinning disks
	CapacityGB  float64
	Interface   string
	RPM         int // 0 for SSDs
	CacheMB     int
	PurchaseUSD float64 // per drive
	PowerWatts  float64 // per drive, average of read/write
	Drives      int     // 1, or 2 for RAID 0
	RAIDCtrl    bool    // whether the RAID controller cost/power applies
}

// Economic constants from the paper (§2.1, §4.1).
const (
	amortizationMonths = 36
	hoursPerMonth      = 730
	energyUSDPerKWh    = 0.07
	raidCtrlUSD        = 110
	raidCtrlWatts      = 8.25
)

// TotalPurchaseUSD is the purchase cost of the whole storage class,
// including the RAID controller when present.
func (s Spec) TotalPurchaseUSD() float64 {
	c := s.PurchaseUSD * float64(s.Drives)
	if s.RAIDCtrl {
		c += raidCtrlUSD
	}
	return c
}

// TotalPowerWatts is the run-time power draw of the whole storage class.
func (s Spec) TotalPowerWatts() float64 {
	w := s.PowerWatts * float64(s.Drives)
	if s.RAIDCtrl {
		w += raidCtrlWatts
	}
	return w
}

// TotalCapacityGB is the usable capacity (RAID 0 stripes both drives).
func (s Spec) TotalCapacityGB() float64 {
	return s.CapacityGB * float64(s.Drives)
}

// DerivePriceCentsPerGBHour reproduces the paper's storage price
// calculation: amortised purchase cost over 36 months plus energy at
// $0.07/kWh, divided by usable capacity. The results match Table 1's second
// row to within rounding (see the package tests).
func (s Spec) DerivePriceCentsPerGBHour() float64 {
	hours := float64(amortizationMonths * hoursPerMonth)
	purchaseCentsPerHour := s.TotalPurchaseUSD() * 100 / hours
	energyCentsPerHour := s.TotalPowerWatts() / 1000 * energyUSDPerKWh * 100
	return (purchaseCentsPerHour + energyCentsPerHour) / s.TotalCapacityGB()
}

// calib holds the measured per-operation service time (milliseconds) at the
// two calibration points of Table 1: 1 and 300 concurrent DB threads.
type calib struct {
	c1, c300 float64
}

// Device is one provisioned storage class instance.
type Device struct {
	Class         Class
	Spec          Spec
	CapacityBytes int64   // usable capacity; experiments may lower this
	PriceCents    float64 // cent/GB/hour

	svc [NumIOTypes]calib
}

// table1 carries the measured service times (ms per I/O for reads, ms per
// row for writes) exactly as published in Table 1 of the paper. The first
// number in each pair is the single-thread measurement, the second the
// 300-thread measurement.
var table1 = map[Class][NumIOTypes]calib{
	HDD:       {SeqRead: {0.072, 0.174}, RandRead: {13.32, 8.903}, SeqWrite: {0.012, 0.039}, RandWrite: {10.15, 8.124}},
	HDDRAID0:  {SeqRead: {0.049, 0.096}, RandRead: {12.19, 2.712}, SeqWrite: {0.011, 0.034}, RandWrite: {11.55, 3.770}},
	LSSD:      {SeqRead: {0.036, 0.053}, RandRead: {1.759, 1.468}, SeqWrite: {0.020, 0.341}, RandWrite: {62.01, 37.45}},
	LSSDRAID0: {SeqRead: {0.021, 0.037}, RandRead: {1.570, 0.826}, SeqWrite: {0.013, 0.082}, RandWrite: {21.14, 17.71}},
	HSSD:      {SeqRead: {0.016, 0.013}, RandRead: {0.091, 0.024}, SeqWrite: {0.009, 0.025}, RandWrite: {0.928, 0.986}},
}

// Table1PriceCents is the published storage price (cent/GB/hour) from
// Table 1, used to cross-check the derivation from Table 2.
var Table1PriceCents = map[Class]float64{
	HDD:       3.47e-4,
	HDDRAID0:  8.19e-4,
	LSSD:      7.65e-3,
	LSSDRAID0: 9.51e-3,
	HSSD:      1.69e-1,
}

// specs carries Table 2 plus the RAID compositions of §4.1.
var specs = map[Class]Spec{
	HDD: {Brand: "WD", Model: "Caviar Black", CapacityGB: 500,
		Interface: "SATA II", RPM: 7200, CacheMB: 32, PurchaseUSD: 34, PowerWatts: 8.3, Drives: 1},
	HDDRAID0: {Brand: "WD", Model: "Caviar Black x2 RAID 0", CapacityGB: 500,
		Interface: "SATA II", RPM: 7200, CacheMB: 32, PurchaseUSD: 34, PowerWatts: 8.3, Drives: 2, RAIDCtrl: true},
	LSSD: {Brand: "Imation", Model: "M-Class 2.5\"", FlashType: "MLC", CapacityGB: 128,
		Interface: "SATA II", CacheMB: 64, PurchaseUSD: 253, PowerWatts: 2.5, Drives: 1},
	LSSDRAID0: {Brand: "Imation", Model: "M-Class x2 RAID 0", FlashType: "MLC", CapacityGB: 128,
		Interface: "SATA II", CacheMB: 64, PurchaseUSD: 253, PowerWatts: 2.5, Drives: 2, RAIDCtrl: true},
	HSSD: {Brand: "Fusion IO", Model: "ioDrive", FlashType: "SLC", CapacityGB: 80,
		Interface: "PCI-Express", PurchaseUSD: 3550, PowerWatts: 10.5, Drives: 1},
}

// New builds a device of the given class with the paper's calibration. The
// price is the value derived from Table 2 (which reproduces Table 1).
func New(c Class) *Device {
	spec, ok := specs[c]
	if !ok {
		panic(fmt.Sprintf("device: no spec for class %v", c))
	}
	d := &Device{
		Class:         c,
		Spec:          spec,
		CapacityBytes: int64(spec.TotalCapacityGB() * 1e9),
		PriceCents:    spec.DerivePriceCentsPerGBHour(),
		svc:           table1[c],
	}
	return d
}

// NewScaled builds a device of the given class provisioned with `units`
// physical units (paper §5.2: configurations buy devices in whole units).
// Usable capacity scales with the unit count; the per-GB price and the
// calibrated service times are those of a single unit — the paper's model
// stripes capacity but keeps per-I/O times per class.
func NewScaled(c Class, units int) *Device {
	if units < 1 {
		panic(fmt.Sprintf("device: NewScaled(%v, %d): units must be >= 1", c, units))
	}
	d := New(c)
	d.CapacityBytes *= int64(units)
	return d
}

// Calibration is one I/O type's measured service time in milliseconds at
// the two calibration points of Table 1: 1 and 300 concurrent DB threads.
// The paper measures these end-to-end per deployment (§3.5.1); NewCustom
// lets experiments carry measurements for hardware outside Table 2.
type Calibration struct {
	MS1, MS300 float64
}

// NewCustom builds a device of class c from a deployment-specific spec and
// service-time calibration instead of the paper's published Table 1/2
// numbers. Price and capacity derive from the spec exactly as New derives
// them, so custom devices obey the same economics (§2.1, §4.1).
//
// The published five classes happen to be totally ordered on read latency —
// the H-SSD is fastest at both read patterns at every concurrency — which
// makes best-replica read routing degenerate: no class set ever reads
// faster than its fastest member alone. Hardware that breaks that order
// (e.g. a wide HDD stripe that outruns SATA SSDs on streaming reads) is
// exactly where replicated placement pays, and NewCustom is how such a
// device enters a box.
func NewCustom(c Class, spec Spec, svc [NumIOTypes]Calibration) *Device {
	if !ValidClass(c) {
		panic(fmt.Sprintf("device: NewCustom with invalid class %v", c))
	}
	d := &Device{
		Class:         c,
		Spec:          spec,
		CapacityBytes: int64(spec.TotalCapacityGB() * 1e9),
		PriceCents:    spec.DerivePriceCentsPerGBHour(),
	}
	for t, cal := range svc {
		d.svc[t] = calib{c1: cal.MS1, c300: cal.MS300}
	}
	return d
}

// UnitCapacityBytes returns the capacity of ONE physical unit of the class,
// derived from the hardware spec. It is independent of SetCapacity overrides
// and of unit scaling, so discrete cost models can price whole devices even
// on scaled or capacity-constrained boxes.
func (d *Device) UnitCapacityBytes() int64 {
	if b := int64(d.Spec.TotalCapacityGB() * 1e9); b > 0 {
		return b
	}
	return d.CapacityBytes
}

// ServiceTime returns the per-operation service time for the given I/O type
// under the given degree of concurrency (number of concurrent DB threads,
// paper §3.5). Between the two calibration points the time is interpolated
// linearly in log(concurrency), clamped outside [1, 300]. Reads are per page
// I/O; writes are per row, matching Table 1's units.
func (d *Device) ServiceTime(t IOType, concurrency int) time.Duration {
	cal := d.svc[t]
	var ms float64
	switch {
	case concurrency <= 1:
		ms = cal.c1
	case concurrency >= 300:
		ms = cal.c300
	default:
		frac := math.Log(float64(concurrency)) / math.Log(300)
		ms = cal.c1 + (cal.c300-cal.c1)*frac
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// ServiceTimeMs exposes the raw calibration in milliseconds, mainly for
// reporting Table 1.
func (d *Device) ServiceTimeMs(t IOType, concurrency int) float64 {
	return float64(d.ServiceTime(t, concurrency)) / float64(time.Millisecond)
}

// String identifies the device by class name.
func (d *Device) String() string { return d.Class.String() }
