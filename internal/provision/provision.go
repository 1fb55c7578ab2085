// Package provision implements the paper's §5 extensions: the generalized
// provisioning problem (§5.1 — choose the storage configuration, i.e. the
// box, together with its layout) and the discrete-sized storage cost model
// (§5.2 — devices are bought in whole units, blended with the linear
// proportional cost by a parameter alpha).
package provision

import (
	"fmt"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/search"
	"dotprov/internal/workload"
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
	// EstimatorCalls counts underlying estimator invocations for sweeps that
	// share a metrics memo across candidates (SweepConfigurations,
	// CompareAlphas); 0 for ChooseConfiguration, whose candidates own
	// independent estimators.
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
		ch.Results = append(ch.Results, cr)
		ch.Evaluated += res.Evaluated
		if !res.Feasible {
			continue
		}
		if ch.Best < 0 || res.TOCCents < ch.Results[ch.Best].Result.TOCCents {
			ch.Best = len(ch.Results) - 1
		}
	}
	return ch, nil
}

// discreteClassCost prices one class holding `bytes` bytes under the §5.2
// blend. Both forms of the model call it per class in ascending class
// order, so the map and compact paths produce bit-identical totals.
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

// DiscreteCostModel returns the layout cost function of §5.2:
//
//	C(L) = sum_j [ alpha * (p_j * c_j) + (1-alpha) * (S_j/c_j) * (p_j * c_j) ]
//
// where the first term is the discrete cost of the devices a class needs
// (paid in whole units as soon as the class is used) and the second is the
// proportional cost; alpha in [0, 1] blends them. alpha = 0 degenerates to
// the paper's linear model of §2.1.
func DiscreteCostModel(cat *catalog.Catalog, box *device.Box, alpha float64) (func(catalog.Layout) (float64, error), error) {
	m, _, err := DiscreteCostModels(cat, box, alpha)
	return m, err
}

// DiscreteCostModels returns the §5.2 model in both forms — the map-layout
// function for Input.LayoutCost and its mirror over per-class totals for
// Input.LayoutCostCompact — so the compiled search path prices candidates
// without materializing map layouts, or walking them: the model reads the
// bytes each class holds and nothing else. On the single-class layouts the
// model is defined for, the two price bit-identically.
func DiscreteCostModels(cat *catalog.Catalog, box *device.Box, alpha float64) (func(catalog.Layout) (float64, error), func(catalog.ClassSpace) (float64, error), error) {
	if alpha < 0 || alpha > 1 {
		return nil, nil, fmt.Errorf("provision: alpha must be in [0, 1], got %g", alpha)
	}
	mapModel := func(l catalog.Layout) (float64, error) {
		space := l.SpaceByClass(cat)
		var total float64
		for _, cls := range catalog.SortedClasses(space) {
			bytes := space[cls]
			if bytes == 0 {
				continue
			}
			d := box.Device(cls)
			if d == nil {
				return 0, fmt.Errorf("provision: layout uses class %v absent from box %q", cls, box.Name)
			}
			total += discreteClassCost(d, bytes, alpha)
		}
		return total, nil
	}
	compactModel := func(sp catalog.ClassSpace) (float64, error) {
		var total float64
		for c := 0; c < device.NumClasses; c++ {
			bytes := sp.Bytes[c]
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
	}
	return mapModel, compactModel, nil
}

// CompareAlphas runs DOT under the discrete model for each alpha and
// returns the recommendations, for the §5.2 sensitivity sweep. The alpha
// points share one metrics memo (the estimator never re-prices a layout two
// alphas both reach) and one worker budget of width in.Workers, under which
// they run concurrently; results are deterministic and in alpha order. When
// in.Workers > 1, in.Est must be safe for concurrent use.
func CompareAlphas(in core.Input, opts core.Options, alphas []float64) ([]CandidateResult, error) {
	if in.Est == nil {
		return nil, fmt.Errorf("provision: CompareAlphas requires an estimator")
	}
	models := make([]func(catalog.Layout) (float64, error), len(alphas))
	compactModels := make([]func(catalog.ClassSpace) (float64, error), len(alphas))
	for i, a := range alphas {
		model, compactModel, err := DiscreteCostModels(in.Cat, in.Box, a)
		if err != nil {
			return nil, err
		}
		models[i], compactModels[i] = model, compactModel
	}
	// One compilation of the estimator serves every alpha point; the memo
	// keeps compact/delta capability, so each point's engine stays on the
	// compiled path.
	memoEst := search.Memoize(workload.CompileEstimator(in.Est, in.Cat), 0)
	budget := in.Budget
	if budget == nil {
		budget = search.NewBudget(in.Workers)
	}
	out := make([]CandidateResult, len(alphas))
	err := search.Parallel(budget.Workers(), len(alphas), func(i int) error {
		in2 := in
		in2.Est = memoEst
		in2.LayoutCost = models[i]
		in2.LayoutCostCompact = compactModels[i]
		in2.Budget = budget
		res, err := core.Optimize(in2, opts)
		if err != nil {
			return fmt.Errorf("provision: alpha %g: %w", alphas[i], err)
		}
		out[i] = CandidateResult{Name: fmt.Sprintf("alpha=%g", alphas[i]), Result: res}
		if !res.Feasible {
			out[i].Failure = InfeasibilityReason(in.Cat, in.Box, opts)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Amortize converts a one-off TOC measurement into a cents/hour figure for
// reporting (helper for harnesses that compare DSS runs of different
// lengths).
func Amortize(tocCents float64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return tocCents / elapsed.Hours()
}
