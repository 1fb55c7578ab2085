package online

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
)

// DefaultDriftThreshold is the relative I/O-time divergence above which an
// observed window counts as drifted when Detector.Threshold is 0. At 0.15,
// re-advising fires once the observed profile's placement-relevant I/O
// time departs at least 15% from what the deployed layout was optimized
// for — well above estimator noise, well below "the workload has turned
// over".
const DefaultDriftThreshold = 0.15

// Drift is the outcome of one drift check.
type Drift struct {
	// RefFingerprint and ObsFingerprint digest the reference window (what
	// the deployed layout was advised for) and the observed aggregate.
	// Equal digests short-circuit the check: no drift, Divergence 0.
	RefFingerprint string
	ObsFingerprint string
	// Divergence is the relative I/O-time divergence: the service-time-
	// weighted L1 distance between the rate-normalized profiles under the
	// deployed layout (reads at each unit's fastest copy, writes on every
	// copy), divided by the reference profile's I/O time. 0 means
	// identical placement-relevant behaviour; 1 means the difference costs
	// as much I/O time as the whole reference profile. +Inf when the
	// reference profile had no I/O time but the observed one does.
	Divergence float64
	// Drifted reports Divergence > threshold. Thin windows never drift.
	Drifted bool
	// Thin marks an observed window below the detector's I/O floor — too
	// little traffic to judge, so the check abstains.
	Thin bool
}

// Detector decides whether an observed profile window has materially
// departed from the reference profile the deployed layout was optimized
// for. The zero value is not usable: Box is required. A Detector is a pure
// reader and safe for concurrent use.
type Detector struct {
	Box *device.Box
	// Concurrency resolves device service times (paper §3.5), matching the
	// degree of concurrency the advisor optimizes for.
	Concurrency int
	// Threshold is the Divergence above which Drifted is reported
	// (0 selects DefaultDriftThreshold).
	Threshold float64
}

// minWindowIOs is the I/O count below which an observed window, or the
// aggregate a Manager checks, is Thin: too little traffic to judge.
const minWindowIOs = 1

func (d Detector) threshold() float64 {
	if d.Threshold <= 0 {
		return DefaultDriftThreshold
	}
	return d.Threshold
}

// serviceTime resolves one I/O type's service time under a copy set: the
// sum over the members device.ClassSet.Route charges it to — the same rule
// the estimators price candidates with.
func (d Detector) serviceTime(s device.ClassSet, t device.IOType) (time.Duration, error) {
	if !s.Valid() {
		return 0, fmt.Errorf("online: invalid replica set %#x", uint8(s))
	}
	var devs [device.NumClasses]*device.Device
	for c := device.Class(0); int(c) < device.NumClasses; c++ {
		if !s.Has(c) {
			continue
		}
		if devs[c] = d.Box.Device(c); devs[c] == nil {
			return 0, fmt.Errorf("online: deployed layout places a copy on class set %v, not all in box %q", s, d.Box.Name)
		}
	}
	var out time.Duration
	to := s.Route(t, func(c device.Class) time.Duration { return devs[c].ServiceTime(t, d.Concurrency) })
	for c, dev := range devs {
		if to.Has(device.Class(c)) {
			out += dev.ServiceTime(t, d.Concurrency)
		}
	}
	return out, nil
}

// Compare checks the observed window against the reference under the
// deployed layout. The layout must place every object either profile
// touches. Windows of different lengths are rate-normalized on virtual
// elapsed time when both windows carry it, on total I/O count otherwise.
func (d Detector) Compare(ref, obs Window, layout catalog.SetLayout) (Drift, error) {
	if d.Box == nil {
		return Drift{}, fmt.Errorf("online: Detector requires a Box")
	}
	dr := Drift{
		RefFingerprint: ref.Fingerprint(),
		ObsFingerprint: obs.Fingerprint(),
	}
	if dr.RefFingerprint == dr.ObsFingerprint {
		return dr, nil // provably identical observations
	}
	if obs.IOs() < minWindowIOs {
		dr.Thin = true
		return dr, nil
	}
	// Rate-normalize the observed profile onto the reference window's span.
	scale := 1.0
	switch {
	case ref.Elapsed > 0 && obs.Elapsed > 0:
		scale = float64(ref.Elapsed) / float64(obs.Elapsed)
	case ref.IOs() > 0 && obs.IOs() > 0:
		scale = ref.IOs() / obs.IOs()
	}
	// Service-time-weighted L1 distance under the deployed layout, over the
	// union of touched objects.
	var num float64
	seen := make(map[catalog.ObjectID]bool, len(ref.Profile)+len(obs.Profile))
	union := make([]catalog.ObjectID, 0, len(ref.Profile)+len(obs.Profile))
	for id := range ref.Profile {
		if !seen[id] {
			seen[id] = true
			union = append(union, id)
		}
	}
	for id := range obs.Profile {
		if !seen[id] {
			seen[id] = true
			union = append(union, id)
		}
	}
	// Sum in object order: float accumulation must not depend on map
	// iteration order, or a threshold-straddling divergence could flip the
	// verdict between identical runs (the repo's determinism contract).
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	for _, id := range union {
		set, ok := layout[id]
		if !ok {
			return Drift{}, fmt.Errorf("online: object %d observed but not placed by the deployed layout", id)
		}
		rv := ref.Profile.Get(id)
		ov := obs.Profile.Get(id)
		for _, t := range device.AllIOTypes {
			diff := math.Abs(rv[t] - scale*ov[t])
			if diff > 0 {
				st, err := d.serviceTime(set, t)
				if err != nil {
					return Drift{}, err
				}
				num += diff * float64(st)
			}
		}
	}
	refTime, err := ref.Profile.SetIOTime(layout, d.Box, d.Concurrency)
	if err != nil {
		return Drift{}, err
	}
	switch {
	case refTime > 0:
		dr.Divergence = num / float64(refTime)
	case num > 0:
		dr.Divergence = math.Inf(1)
	}
	dr.Drifted = dr.Divergence > d.threshold()
	return dr, nil
}
