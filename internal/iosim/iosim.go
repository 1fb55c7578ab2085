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
// Eq. 1, extended over the whole profile.
func (p Profile) IOTime(layout catalog.Layout, box *device.Box, concurrency int) (time.Duration, error) {
	var total time.Duration
	for id, v := range p {
		cls, ok := layout[id]
		if !ok {
			return 0, fmt.Errorf("iosim: object %d not placed by layout", id)
		}
		d := box.Device(cls)
		if d == nil {
			return 0, fmt.Errorf("iosim: layout places object %d on class %v absent from box %q", id, cls, box.Name)
		}
		for _, t := range device.AllIOTypes {
			n := v[t]
			if n > 0 {
				total += time.Duration(n * float64(d.ServiceTime(t, concurrency)))
			}
		}
	}
	return total, nil
}

// SetIOTime is IOTime over class sets — the map-form reference the compiled
// tables are tested against, deliberately written out on its own rather
// than sharing their arithmetic: reads are charged to each object's best
// member per I/O type (minimum service time, ties to the lowest class),
// writes to every member in ascending class order. On a layout of singleton
// sets it equals IOTime on the single-class form bit for bit (integer
// Duration sums reorder exactly across the map's iteration order).
func (p Profile) SetIOTime(layout catalog.SetLayout, box *device.Box, concurrency int) (time.Duration, error) {
	var total time.Duration
	for id, v := range p {
		set, ok := layout[id]
		if !ok {
			return 0, fmt.Errorf("iosim: object %d not placed by layout", id)
		}
		if !set.Valid() {
			return 0, fmt.Errorf("iosim: layout places object %d on invalid class set %v", id, set)
		}
		var devs [device.NumClasses]*device.Device
		for c := device.Class(0); int(c) < device.NumClasses; c++ {
			if !set.Has(c) {
				continue
			}
			if devs[c] = box.Device(c); devs[c] == nil {
				return 0, fmt.Errorf("iosim: layout places object %d on class set %v unusable for box %q", id, set, box.Name)
			}
		}
		for _, t := range device.AllIOTypes {
			n := v[t]
			if n <= 0 {
				continue
			}
			var best time.Duration
			first := true
			for _, d := range devs {
				if d == nil {
					continue
				}
				st := d.ServiceTime(t, concurrency)
				if !t.IsRead() {
					total += time.Duration(n * float64(st))
				} else if first || st < best {
					best, first = st, false
				}
			}
			if t.IsRead() {
				total += time.Duration(n * float64(best))
			}
		}
	}
	return total, nil
}

// ObjectIOTime computes the I/O time share of a single object under a given
// storage class (the inner term of Eq. 1).
func (p Profile) ObjectIOTime(id catalog.ObjectID, d *device.Device, concurrency int) time.Duration {
	v := p.Get(id)
	var total time.Duration
	for _, t := range device.AllIOTypes {
		if v[t] > 0 {
			total += time.Duration(v[t] * float64(d.ServiceTime(t, concurrency)))
		}
	}
	return total
}

// Charger receives per-object device charges. It is the same method set as
// bufferpool.IOCharger, restated here so observers (e.g. the online
// advisor's live profile collector) can be attached to an Accountant
// without iosim depending on the buffer pool.
type Charger interface {
	ChargeIO(id catalog.ObjectID, t device.IOType, n int64)
}

// PageCharger is a Charger that additionally accepts page-located charges.
// Call sites that know WHICH page an I/O touched (the buffer pool's miss
// path, the heap files' row writes) charge through ChargePageIO, giving
// observers the page-range locality that heat-based partitioning is built
// on; page-blind call sites keep using ChargeIO and contribute counts
// without locality.
type PageCharger interface {
	Charger
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
// service times can be resolved up front; Charge is then allocation-free.
//
// An Accountant is not safe for concurrent use; each simulated worker owns
// its own and results are merged afterwards. A tap installed with SetTap
// may however be shared across accountants — it must then be safe for
// concurrent use itself (online.Collector is: every charge takes its
// mutex).
type Accountant struct {
	clock   *vclock.Clock
	svc     map[catalog.ObjectID]*[device.NumIOTypes]time.Duration
	profile Profile
	ioTime  time.Duration
	cpuTime time.Duration
	tap     Charger
	// pageTap is tap's page-aware view, resolved once at SetTap so the
	// charge hot path never type-asserts.
	pageTap PageCharger
}

// SetTap installs a live observer that every subsequent ChargeIO is
// mirrored to, in addition to the accountant's own profile. Nil removes
// the tap. The engine uses this to stream per-object I/O charges into the
// online advisor's rolling profile windows without touching the measured
// accounting. A tap that also implements PageCharger additionally receives
// the page-located charges (ChargePageIO), the locality feed for
// heat-based partitioning. The tap sees each charge as it is made, so an
// observer read after a charge has that charge.
func (a *Accountant) SetTap(t Charger) {
	a.tap = t
	a.pageTap, _ = t.(PageCharger)
}

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
		profile: NewProfile(),
	}
	for id, cls := range layout {
		d := box.Device(cls)
		if d == nil {
			return nil, fmt.Errorf("iosim: layout places object %d on class %v absent from box %q", id, cls, box.Name)
		}
		var times [device.NumIOTypes]time.Duration
		for _, t := range device.AllIOTypes {
			times[t] = d.ServiceTime(t, concurrency)
		}
		a.svc[id] = &times
	}
	return a, nil
}

// account is the shared measured-accounting core of ChargeIO and
// ChargePageIO: resolve service times, advance the clock, tally I/O time
// and the profile. Both entry points MUST funnel through it so page-blind
// and page-located charges can never diverge in what they measure.
func (a *Accountant) account(id catalog.ObjectID, t device.IOType, n int64) {
	times := a.svc[id]
	if times == nil {
		panic(fmt.Sprintf("iosim: charge on object %d not covered by layout", id))
	}
	d := time.Duration(n) * times[t]
	a.clock.Advance(d)
	a.ioTime += d
	a.profile.Add(id, t, float64(n))
}

// ChargeIO records n I/Os of type t against object id, advancing the
// virtual clock by n service times. Objects unknown to the layout panic:
// that is a programming error (the layout must be total over O).
func (a *Accountant) ChargeIO(id catalog.ObjectID, t device.IOType, n int64) {
	if n <= 0 {
		return
	}
	a.account(id, t, n)
	if a.tap != nil {
		a.tap.ChargeIO(id, t, n)
	}
}

// ChargePageIO is ChargeIO for a charge whose page is known: the measured
// accounting is identical, and a page-aware tap additionally receives the
// page so it can maintain per-extent access statistics. It implements
// PageCharger.
func (a *Accountant) ChargePageIO(id catalog.ObjectID, t device.IOType, page int64, n int64) {
	if n <= 0 {
		return
	}
	a.account(id, t, n)
	if a.pageTap != nil {
		a.pageTap.ChargePageIO(id, t, page, n)
	} else if a.tap != nil {
		a.tap.ChargeIO(id, t, n)
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

// ResetCounters clears the profile and time tallies but leaves the clock
// running, so a warm-up phase can be excluded from measurement. Warm-up
// charges already mirrored to the tap stay with the tap (the collector
// owner excludes warm-up by rolling).
func (a *Accountant) ResetCounters() {
	a.profile = NewProfile()
	a.ioTime = 0
	a.cpuTime = 0
}
