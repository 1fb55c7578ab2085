// Package provision implements the paper's §5 extensions: the generalized
// provisioning problem (§5.1 — choose the storage configuration, i.e. the
// box, together with its layout) and the discrete-sized storage cost model
// (§5.2 — devices are bought in whole units, blended with the linear
// proportional cost by a parameter alpha). A candidate configuration is one
// ordinary core search with an engine of its own, and the §5.2 model is one
// function of a layout's per-class totals (DiscreteCost) installed as that
// search's core.Input.LayoutCost.
package provision

import (
	"fmt"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
)

// Candidate is one storage configuration option f_i of §5.1: a box plus the
// DOT input bound to it (estimator, profiles, catalog).
type Candidate struct {
	Name string
	In   core.Input
}

// Choice reports the winning configuration and every candidate's outcome.
type Choice struct {
	Best    int // index into Results; -1 if nothing feasible
	Results []CandidateResult
	// Evaluated sums the layouts investigated across every candidate's
	// search (memoized revisits included).
	Evaluated int
	// EstimatorCalls sums the candidates' Result.EstimatorCalls: the
	// evaluations that missed their candidate's engine memo. Every candidate
	// searches with an engine of its own (an evaluation is valid for one box
	// and one cost model), so a layout two candidates both reach is counted,
	// and estimated, once for each.
	EstimatorCalls int
}

// CandidateResult pairs a candidate with its DOT recommendation.
type CandidateResult struct {
	Name string
	// Result is the candidate's recommendation; its Layout is nil when some
	// unit holds more than one copy.
	Result *core.Result
	// SetLayout is the recommendation in class-set form (SweepConfigurations
	// only; nil otherwise).
	SetLayout catalog.SetLayout
	// Spec is the enumerated grid candidate behind this result
	// (SweepConfigurations only; nil otherwise).
	Spec *BoxSpec
	// Failure explains why the candidate produced no feasible layout —
	// over-capacity cases distinguished from SLA misses. Empty when the
	// candidate is feasible.
	Failure string
}

// ChooseConfiguration solves the generalized provisioning problem: run DOT
// on every candidate configuration and pick the feasible recommendation
// with the minimum TOC (paper §5.1.1). Candidates are evaluated in order on
// the calling goroutine (each candidate carries its own estimator, which
// need not be safe for concurrent use); for the engine-backed parallel grid
// sweep see SweepConfigurations.
func ChooseConfiguration(cands []Candidate, opts core.Options) (*Choice, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("provision: no candidate configurations")
	}
	ch := &Choice{Best: -1}
	for _, c := range cands {
		res, err := core.Optimize(c.In, opts)
		if err != nil {
			return nil, fmt.Errorf("provision: candidate %q: %w", c.Name, err)
		}
		cr := CandidateResult{Name: c.Name, Result: res}
		if !res.Feasible {
			cr.Failure = InfeasibilityReason(c.In.Cat, c.In.Box, opts)
		}
		ch.add(cr)
	}
	return ch, nil
}

// add appends a candidate's outcome: the totals grow by its search's work,
// and it becomes Best when it is feasible and strictly cheaper than the
// incumbent — so ties go to the candidate added first.
func (ch *Choice) add(cr CandidateResult) {
	ch.Results = append(ch.Results, cr)
	ch.Evaluated += cr.Result.Evaluated
	ch.EstimatorCalls += cr.Result.EstimatorCalls
	if cr.Result.Feasible && (ch.Best < 0 || cr.Result.TOCCents < ch.Results[ch.Best].Result.TOCCents) {
		ch.Best = len(ch.Results) - 1
	}
}

// discreteClassCost prices one class holding `bytes` bytes under the §5.2
// blend.
func discreteClassCost(d *device.Device, bytes int64, alpha float64) float64 {
	// One unit is one physical device of the class: scaled boxes
	// (device.NewScaled) still buy — and price — whole units.
	unitBytes := d.UnitCapacityBytes()
	capGB := float64(unitBytes) / 1e9
	unitCost := d.PriceCents * capGB // p_j * c_j, cent/hour for the whole device
	// Units needed to hold S_j (devices are bought whole).
	units := float64((bytes + unitBytes - 1) / unitBytes)
	if units < 1 {
		units = 1
	}
	discrete := unitCost * units
	linear := d.PriceCents * float64(bytes) / 1e9
	return alpha*discrete + (1-alpha)*linear
}

// DiscreteCost returns the layout cost model of §5.2 on a box, in the form
// core.Input.LayoutCost and online.Config.LayoutCost take:
//
//	C(L) = sum_j [ alpha * (p_j * c_j) + (1-alpha) * (S_j/c_j) * (p_j * c_j) ]
//
// where the first term is the discrete cost of the devices a class needs
// (paid in whole units as soon as the class holds data) and the second is
// the proportional cost; alpha in [0, 1] blends them. alpha = 0 degenerates
// to the paper's linear model of §2.1. The model reads the bytes each class
// holds and nothing else, so it prices object- and partition-granular
// layouts alike, and classes are summed in ascending order on every path
// that reaches it.
func DiscreteCost(box *device.Box, alpha float64) (func(catalog.ClassSpace) (float64, error), error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("provision: alpha must be in [0, 1], got %g", alpha)
	}
	return func(sp catalog.ClassSpace) (float64, error) {
		var total float64
		for c, bytes := range sp.Bytes {
			if bytes == 0 {
				continue
			}
			d := box.Device(device.Class(c))
			if d == nil {
				return 0, fmt.Errorf("provision: layout uses class %v absent from box %q", device.Class(c), box.Name)
			}
			total += discreteClassCost(d, bytes, alpha)
		}
		return total, nil
	}, nil
}

// DiscreteCostModel is DiscreteCost for callers that hold a single-class
// map layout rather than a search (reports, the benchmark's independent
// checker): the layout is totalled per class over cat and priced by the
// same function.
func DiscreteCostModel(cat *catalog.Catalog, box *device.Box, alpha float64) (func(catalog.Layout) (float64, error), error) {
	model, err := DiscreteCost(box, alpha)
	if err != nil {
		return nil, err
	}
	return func(l catalog.Layout) (float64, error) {
		return model(catalog.SingletonSetLayout(l).Space(cat))
	}, nil
}
