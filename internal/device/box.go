package device

import (
	"fmt"
	"sort"
	"time"
)

// Box is a server's I/O subsystem: the set of storage classes available to
// the layout optimizer. The paper evaluates two boxes (§4.1):
//
//	Box 1: HDD RAID 0, L-SSD, H-SSD
//	Box 2: HDD, L-SSD RAID 0, H-SSD
type Box struct {
	Name    string
	Devices []*Device
}

// NewBox builds a box from storage classes, each with its default capacity.
func NewBox(name string, classes ...Class) *Box {
	b := &Box{Name: name}
	for _, c := range classes {
		b.Devices = append(b.Devices, New(c))
	}
	return b
}

// Box1 returns the paper's Box 1 configuration.
func Box1() *Box { return NewBox("Box 1", HDDRAID0, LSSD, HSSD) }

// Box2 returns the paper's Box 2 configuration.
func Box2() *Box { return NewBox("Box 2", HDD, LSSDRAID0, HSSD) }

// NewBoxOf builds a box from pre-constructed devices, for configurations
// that mix Table 1 classes with NewCustom hardware.
func NewBoxOf(name string, devices ...*Device) *Box {
	return &Box{Name: name, Devices: devices}
}

// BoxHTAP returns the replication demo box: L-SSD and H-SSD from Table 1
// plus a wide (six-disk) HDD RAID 0 scan stripe in the HDD slot, calibrated
// by extrapolating Table 1's two-disk stripe to ideal sequential striping.
// Its streaming reads (0.012 ms/page) outrun both SSDs while its random
// reads stay seek-bound — the read-latency order across the box is NOT
// total, so per-pattern best-replica routing has something to win: a scan
// copy on the stripe plus a point-lookup copy on flash beats any single
// placement once an SLA rules out the slow singleton layouts. On the
// paper's own boxes the H-SSD is fastest at every read pattern and
// replication never strictly wins; see NewCustom.
func BoxHTAP() *Box {
	stripe := NewCustom(HDD, Spec{
		Brand: "WD", Model: "Caviar Black x6 RAID 0",
		CapacityGB: 500, Interface: "SATA II", RPM: 7200, CacheMB: 32,
		PurchaseUSD: 34, PowerWatts: 8.3, Drives: 6, RAIDCtrl: true,
	}, [NumIOTypes]Calibration{
		SeqRead:   {MS1: 0.012, MS300: 0.029},
		RandRead:  {MS1: 12.5, MS300: 3.0},
		SeqWrite:  {MS1: 0.010, MS300: 0.030},
		RandWrite: {MS1: 10.5, MS300: 3.2},
	})
	return NewBoxOf("HTAP Box", stripe, New(LSSD), New(HSSD))
}

// Device returns the device of the given class, or nil if the box does not
// include it.
func (b *Box) Device(c Class) *Device {
	for _, d := range b.Devices {
		if d.Class == c {
			return d
		}
	}
	return nil
}

// Carried returns the set of storage classes the box holds a device of.
func (b *Box) Carried() ClassSet {
	var s ClassSet
	for _, d := range b.Devices {
		if ValidClass(d.Class) {
			s = s.Add(d.Class)
		}
	}
	return s
}

// ServiceTimes resolves every carried class's service time per I/O type
// at the degree of concurrency (paper §3.5): the one table every pricer
// reads, resolved once per plan, compile, accountant, drift check or
// migration model. A class the box lists twice takes its first device's
// times, as Box.Device does; a class it does not carry reads zero, so
// callers check membership against Carried.
func (b *Box) ServiceTimes(concurrency int) [NumClasses][NumIOTypes]time.Duration {
	var svc [NumClasses][NumIOTypes]time.Duration
	var seen ClassSet
	for _, d := range b.Devices {
		if !ValidClass(d.Class) || seen.Has(d.Class) {
			continue
		}
		seen = seen.Add(d.Class)
		for _, t := range AllIOTypes {
			svc[d.Class][t] = d.ServiceTime(t, concurrency)
		}
	}
	return svc
}

// Classes lists the storage classes in the box.
func (b *Box) Classes() []Class {
	out := make([]Class, len(b.Devices))
	for i, d := range b.Devices {
		out[i] = d.Class
	}
	return out
}

// MostExpensive returns the device with the highest cent/GB/hour price. DOT
// uses it as the starting layout L0 (paper §3.1: "start from a layout that
// places all the objects on the most expensive storage class").
func (b *Box) MostExpensive() *Device {
	if len(b.Devices) == 0 {
		return nil
	}
	best := b.Devices[0]
	for _, d := range b.Devices[1:] {
		if d.PriceCents > best.PriceCents {
			best = d
		}
	}
	return best
}

// Cheapest returns the device with the lowest cent/GB/hour price.
func (b *Box) Cheapest() *Device {
	if len(b.Devices) == 0 {
		return nil
	}
	best := b.Devices[0]
	for _, d := range b.Devices[1:] {
		if d.PriceCents < best.PriceCents {
			best = d
		}
	}
	return best
}

// SetCapacity overrides the usable capacity of one class, for the paper's
// capacity-constrained experiments (§4.4.3, §4.5.3). It returns an error if
// the class is not in the box.
func (b *Box) SetCapacity(c Class, bytes int64) error {
	d := b.Device(c)
	if d == nil {
		return fmt.Errorf("device: box %q has no class %v", b.Name, c)
	}
	d.CapacityBytes = bytes
	return nil
}

// TotalCapacityBytes returns the usable capacity summed over every device
// in the box.
func (b *Box) TotalCapacityBytes() int64 {
	var total int64
	for _, d := range b.Devices {
		total += d.CapacityBytes
	}
	return total
}

// SortedByPrice returns the devices ordered from cheapest to most expensive.
func (b *Box) SortedByPrice() []*Device {
	out := append([]*Device(nil), b.Devices...)
	sort.Slice(out, func(i, j int) bool { return out[i].PriceCents < out[j].PriceCents })
	return out
}

// Clone returns a deep copy of the box so experiments can adjust capacities
// without affecting each other.
func (b *Box) Clone() *Box {
	nb := &Box{Name: b.Name}
	for _, d := range b.Devices {
		cp := *d
		nb.Devices = append(nb.Devices, &cp)
	}
	return nb
}
