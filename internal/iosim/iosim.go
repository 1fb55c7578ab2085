// Package iosim is the storage simulator's accounting engine. Execution in
// this reproduction is real (pages, B+-trees, tuples), but time is virtual:
// every device operation charges the calibrated per-I/O service time of the
// storage class that currently holds the touched object (paper Table 1)
// against a virtual clock.
//
// The package also defines Profile, the workload profile X = chi^p_r[o] of
// paper §3.4: the number of I/Os of each type on each object.
package iosim

import (
	"fmt"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/vclock"
)

// IOVector counts I/Os by type (indexed by device.IOType). Counts are
// float64 because optimizer estimates are fractional; measured counts are
// whole numbers.
type IOVector [device.NumIOTypes]float64

// Add accumulates another vector.
func (v *IOVector) Add(o IOVector) {
	for i := range v {
		v[i] += o[i]
	}
}

// Total returns the total number of I/Os in the vector.
func (v IOVector) Total() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Profile is a workload profile: for every object, how many I/Os of each
// type the workload performs on it (chi_r[o], paper §3.3-3.4).
type Profile map[catalog.ObjectID]*IOVector

// NewProfile returns an empty profile.
func NewProfile() Profile { return make(Profile) }

// Add accumulates n I/Os of type t on object id.
func (p Profile) Add(id catalog.ObjectID, t device.IOType, n float64) {
	v := p[id]
	if v == nil {
		v = &IOVector{}
		p[id] = v
	}
	v[t] += n
}

// Get returns the I/O vector for an object (zero vector if absent).
func (p Profile) Get(id catalog.ObjectID) IOVector {
	if v := p[id]; v != nil {
		return *v
	}
	return IOVector{}
}

// Merge accumulates another profile into p.
func (p Profile) Merge(o Profile) {
	for id, v := range o {
		pv := p[id]
		if pv == nil {
			pv = &IOVector{}
			p[id] = pv
		}
		pv.Add(*v)
	}
}

// Clone returns a deep copy.
func (p Profile) Clone() Profile {
	out := make(Profile, len(p))
	for id, v := range p {
		cp := *v
		out[id] = &cp
	}
	return out
}

// Scale multiplies every count by f (used to extrapolate a short test run
// to the full workload).
func (p Profile) Scale(f float64) {
	for _, v := range p {
		for i := range v {
			v[i] *= f
		}
	}
}

// IOTime computes the accumulated I/O time of the profile under a layout:
// sum over objects and types of chi_r[o] * tau(type, class(o)) — the paper's
// Eq. 1, extended over the whole profile. It is SetIOTime over singleton
// sets, failing with its own error for a class the box does not carry.
func (p Profile) IOTime(layout catalog.Layout, box *device.Box, concurrency int) (time.Duration, error) {
	return p.ioTime(box, concurrency, func(id catalog.ObjectID) (device.ClassSet, error) {
		cls, ok := layout[id]
		if !ok {
			return 0, notPlaced(id)
		}
		if box.Device(cls) == nil {
			return 0, fmt.Errorf("iosim: layout places object %d on class %v absent from box %q", id, cls, box.Name)
		}
		return device.Singleton(cls), nil
	})
}

// SetIOTime is IOTime over class sets, with reads and writes charged to
// the members device.ClassSet.Route picks. It is the map-form reference
// the compiled tables are tested against: CompiledProfile shares its
// per-entry arithmetic (setIOTime), not its indexing or delta arithmetic.
// Integer Duration sums reorder exactly across the map's iteration order.
func (p Profile) SetIOTime(layout catalog.SetLayout, box *device.Box, concurrency int) (time.Duration, error) {
	return p.ioTime(box, concurrency, func(id catalog.ObjectID) (device.ClassSet, error) {
		set, ok := layout[id]
		if !ok {
			return 0, notPlaced(id)
		}
		if !set.Valid() {
			return 0, fmt.Errorf("iosim: layout places object %d on invalid class set %v", id, set)
		}
		return set, nil
	})
}

// notPlaced is the error every I/O-time pricer reports for a profiled
// object its layout does not place.
func notPlaced(id catalog.ObjectID) error {
	return fmt.Errorf("iosim: object %d not placed by layout", id)
}

// ioTime is the one body of IOTime and SetIOTime: place resolves each
// profiled object's class set, or the error its layout form reports.
func (p Profile) ioTime(box *device.Box, concurrency int, place func(catalog.ObjectID) (device.ClassSet, error)) (time.Duration, error) {
	svc, carried := box.ServiceTimes(concurrency), box.Carried()
	var total time.Duration
	for id, v := range p {
		set, err := place(id)
		if err != nil {
			return 0, err
		}
		if set&^carried != 0 {
			return 0, fmt.Errorf("iosim: layout places object %d on class set %v unusable for box %q", id, set, box.Name)
		}
		total += setIOTime(v, set, &svc)
	}
	return total, nil
}

// ObjectIOTime computes the I/O time share of a single object on the class
// whose service times svc holds, one row of device.Box.ServiceTimes (the
// inner term of Eq. 1).
func (p Profile) ObjectIOTime(id catalog.ObjectID, svc [device.NumIOTypes]time.Duration) time.Duration {
	v := p.Get(id)
	var total time.Duration
	for _, t := range device.AllIOTypes {
		if v[t] > 0 {
			total += time.Duration(v[t] * float64(svc[t]))
		}
	}
	return total
}

// Charger receives per-object device charges: n I/Os of type t on object
// id, touching page, or with page -1 where the charging site does not know
// which page it touched. Sites that know it (the buffer pool's miss path,
// the heap files' row writes) pass it, giving observers the page-range
// locality heat-based partitioning is built on. The Accountant implements
// it, and so do the observers an Accountant mirrors its charges to (the
// online advisor's live profile collector).
type Charger interface {
	ChargePageIO(id catalog.ObjectID, t device.IOType, page int64, n int64)
}

// Flusher is declared only because the end-to-end benchmark's
// collector_charge_ns probe (benchmarks/e2e/offline.go) type-asserts its
// charger against it. Nothing in this module implements or calls it;
// delete it once that probe times ChargePageIO directly.
type Flusher interface {
	// Flush publishes any privately buffered charges.
	Flush()
}

// Accountant charges I/O and CPU time for one simulated DB worker. It is
// constructed against a fixed box + layout + concurrency so the per-object
// service times can be resolved up front; ChargePageIO is then
// allocation-free.
//
// An Accountant is not safe for concurrent use; each simulated worker owns
// its own and results are merged afterwards. A tap installed with SetTap
// may however be shared across accountants — it must then be safe for
// concurrent use itself (online.Collector is: every charge takes its
// mutex).
type Accountant struct {
	clock *vclock.Clock
	// svc points each object at its class's row of table.
	svc     map[catalog.ObjectID]*[device.NumIOTypes]time.Duration
	table   [device.NumClasses][device.NumIOTypes]time.Duration
	profile Profile
	ioTime  time.Duration
	cpuTime time.Duration
	tap     Charger
}

// SetTap installs a live observer that every subsequent charge is
// mirrored to, page and all, in addition to the accountant's own profile.
// Nil removes the tap. The engine uses this to stream per-object I/O
// charges into the online advisor's rolling profile windows without
// touching the measured accounting. The tap sees each charge as it is
// made, so an observer read after a charge has that charge.
func (a *Accountant) SetTap(t Charger) { a.tap = t }

// NewAccountant validates that the layout places every object on a device
// present in the box and resolves service times at the given degree of
// concurrency. The clock may be shared across accountants only for strictly
// sequential workloads.
func NewAccountant(box *device.Box, layout catalog.Layout, concurrency int, clock *vclock.Clock) (*Accountant, error) {
	if clock == nil {
		clock = &vclock.Clock{}
	}
	a := &Accountant{
		clock:   clock,
		svc:     make(map[catalog.ObjectID]*[device.NumIOTypes]time.Duration, len(layout)),
		table:   box.ServiceTimes(concurrency),
		profile: NewProfile(),
	}
	carried := box.Carried()
	for id, cls := range layout {
		if !carried.Has(cls) {
			return nil, fmt.Errorf("iosim: layout places object %d on class %v absent from box %q", id, cls, box.Name)
		}
		a.svc[id] = &a.table[cls]
	}
	return a, nil
}

// ChargePageIO records n I/Os of type t against object id, advancing the
// virtual clock by n service times, and mirrors the charge, page included,
// to the tap. The page does not change what is measured. Objects unknown
// to the layout panic: that is a programming error (the layout must be
// total over O).
func (a *Accountant) ChargePageIO(id catalog.ObjectID, t device.IOType, page int64, n int64) {
	if n <= 0 {
		return
	}
	times := a.svc[id]
	if times == nil {
		panic(fmt.Sprintf("iosim: charge on object %d not covered by layout", id))
	}
	d := time.Duration(n) * times[t]
	a.clock.Advance(d)
	a.ioTime += d
	a.profile.Add(id, t, float64(n))
	if a.tap != nil {
		a.tap.ChargePageIO(id, t, page, n)
	}
}

// ChargeCPU advances the virtual clock by pure compute time.
func (a *Accountant) ChargeCPU(d time.Duration) {
	if d <= 0 {
		return
	}
	a.clock.Advance(d)
	a.cpuTime += d
}

// Clock returns the worker's virtual clock.
func (a *Accountant) Clock() *vclock.Clock { return a.clock }

// Now returns the worker's current virtual time.
func (a *Accountant) Now() time.Duration { return a.clock.Now() }

// IOTime returns the accumulated device time charged so far.
func (a *Accountant) IOTime() time.Duration { return a.ioTime }

// CPUTime returns the accumulated compute time charged so far.
func (a *Accountant) CPUTime() time.Duration { return a.cpuTime }

// Profile returns the live profile of I/Os charged so far. The caller must
// not mutate it; use Profile().Clone() to keep a snapshot.
func (a *Accountant) Profile() Profile { return a.profile }
