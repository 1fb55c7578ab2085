package bench

import (
	"fmt"
	"io"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// SkewSLA is the relative SLA the skew experiment holds both granularities
// to. At 0.2 a whole hot-headed table cannot leave H-SSD (a uniform move
// to any cheaper class blows the constraint) while a heat-based split
// keeps the hot head fast and ships the cold tail cheap.
const SkewSLA = 0.2

// SkewOutcome is one granularity's result on the skew fixture.
type SkewOutcome struct {
	Feasible     bool
	TOCCents     float64
	StorageCents float64 // layout storage cost, cents/hour
	Evaluated    int
	Units        int // placement units searched
	SplitObjects int // objects whose units landed on more than one class
}

// SkewComparison is the experiment's structured output for one box:
// object-granular vs partition-granular DOT on the same fixture, box and
// SLA.
type SkewComparison struct {
	Box         string
	Object      SkewOutcome
	Partitioned SkewOutcome
}

// SkewFixtureInput builds the Zipf hot/cold fixture's object-granular
// input on a box (the shared entry point for the experiment, the
// acceptance tests and the repository benchmarks).
func SkewFixtureInput(box *device.Box) (core.Input, *workload.SkewedFixture, error) {
	fx, err := workload.Skewed(workload.SkewedConfig{})
	if err != nil {
		return core.Input{}, nil, err
	}
	ps := core.NewProfileSet()
	ps.SetSingle(fx.Profile)
	return core.Input{
		Cat:         fx.Cat,
		Box:         box,
		Est:         fx.Estimator(box, 1),
		Profiles:    ps,
		Concurrency: 1,
	}, fx, nil
}

// CompareSkew runs both granularities on one box at SkewSLA.
func CompareSkew(box *device.Box) (SkewComparison, error) {
	in, fx, err := SkewFixtureInput(box)
	if err != nil {
		return SkewComparison{}, err
	}
	opts := core.Options{RelativeSLA: SkewSLA}
	obj, err := core.OptimizeBest(in, opts)
	if err != nil {
		return SkewComparison{}, err
	}
	if !obj.Feasible {
		return SkewComparison{}, fmt.Errorf("bench: skew fixture infeasible at SLA %g on %s (object granularity)", SkewSLA, box.Name)
	}
	objCost, err := obj.Layout.CostCentsPerHour(fx.Cat, box)
	if err != nil {
		return SkewComparison{}, err
	}
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
	if err != nil {
		return SkewComparison{}, err
	}
	uin, err := in.Partitioned(pt)
	if err != nil {
		return SkewComparison{}, err
	}
	pres, err := core.OptimizeBest(uin, opts)
	if err != nil {
		return SkewComparison{}, err
	}
	if !pres.Feasible {
		return SkewComparison{}, fmt.Errorf("bench: skew fixture infeasible at SLA %g on %s (partition granularity)", SkewSLA, box.Name)
	}
	partCost, err := pres.Layout.CostCentsPerHour(pt.UnitCatalog(), box)
	if err != nil {
		return SkewComparison{}, err
	}
	return SkewComparison{
		Box: box.Name,
		Object: SkewOutcome{
			Feasible:     obj.Feasible,
			TOCCents:     obj.TOCCents,
			StorageCents: objCost,
			Evaluated:    obj.Evaluated,
			Units:        fx.Cat.NumObjects(),
		},
		Partitioned: SkewOutcome{
			Feasible:     pres.Feasible,
			TOCCents:     pres.TOCCents,
			StorageCents: partCost,
			Evaluated:    pres.Evaluated,
			Units:        pt.NumUnits(),
			SplitObjects: pt.SplitObjects(pres.Layout),
		},
	}, nil
}

// Skew is the partition-granularity experiment: on the Zipf hot/cold
// fixture, DOT placing whole objects is contrasted with DOT placing
// heat-based partitions at the same SLA on the paper's two boxes. The
// partitioned search must meet the SLA at strictly lower storage cost —
// the claim the repository's acceptance test and benchguard gate on.
func Skew(w io.Writer, _ Options) (*FigureResult, error) {
	f := &FigureResult{ID: "skew: object vs partition granularity (Zipf hot/cold, SLA 0.2)"}
	for _, box := range boxes() {
		cmp, err := CompareSkew(box)
		if err != nil {
			return nil, err
		}
		for _, r := range []struct {
			name string
			o    SkewOutcome
		}{{"object-granular DOT", cmp.Object}, {"partition-granular DOT", cmp.Partitioned}} {
			f.addRow(box.Name, LayoutRow{
				Name:     fmt.Sprintf("%s (%d units)", r.name, r.o.Units),
				TOCCents: r.o.TOCCents,
				PSR:      psrOf(r.o.Feasible),
			})
		}
		f.note("%s: storage %.4e -> %.4e cents/h (%.1fx cheaper), %d of %d objects split",
			cmp.Box, cmp.Object.StorageCents, cmp.Partitioned.StorageCents,
			cmp.Object.StorageCents/cmp.Partitioned.StorageCents,
			cmp.Partitioned.SplitObjects, cmp.Object.Units)
	}
	f.print(w)
	return f, nil
}

func psrOf(feasible bool) float64 {
	if feasible {
		return 1
	}
	return 0
}
