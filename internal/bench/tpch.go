package bench

import (
	"fmt"
	"io"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/plan"
	"dotprov/internal/profiler"
	"dotprov/internal/provision"
	"dotprov/internal/tpch"
	"dotprov/internal/workload"
)

// tpchEnv is a built TPC-H database on one box with a workload.
type tpchEnv struct {
	db   *engine.DB
	box  *device.Box
	w    *workload.DSS
	pw   *workload.PreparedDSS // w's queries, prepared once for inljShare
	ps   *core.ProfileSet
	est  workload.Estimator
	base workload.Metrics // measured on All H-SSD
}

func newTpchEnv(box *device.Box, opts Options, modified bool, subset bool) (*tpchEnv, error) {
	db := engine.New(box, engine.DefaultPoolPages)
	cfg := tpch.Config{ScaleFactor: opts.TpchSF, Seed: opts.TpchSeed}
	var err error
	if subset {
		err = tpch.BuildSubset(db, cfg)
	} else {
		err = tpch.Build(db, cfg)
	}
	if err != nil {
		return nil, err
	}
	var w *workload.DSS
	switch {
	case subset:
		w = tpch.SubsetWorkload(cfg, opts.TpchSeed+1)
	case modified:
		w = tpch.ModifiedWorkload(cfg, opts.TpchSeed+1)
	default:
		w = tpch.OriginalWorkload(cfg, opts.TpchSeed+1)
	}
	db.ResizePool(db.PaperPoolPages())
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		return nil, err
	}
	base, err := w.RunDetailed(db)
	if err != nil {
		return nil, err
	}
	ps, err := profiler.ProfileDSSEstimates(db, w)
	if err != nil {
		return nil, err
	}
	pw, err := w.Prepare(db)
	if err != nil {
		return nil, err
	}
	return &tpchEnv{db: db, box: box, w: w, pw: pw, ps: ps, est: w.Estimator(db), base: base.Metrics}, nil
}

func (e *tpchEnv) input() core.Input {
	return core.Input{Cat: e.db.Cat, Box: e.box, Est: e.est, Profiles: e.ps, Concurrency: 1}
}

// measure runs the workload on a layout and builds the figure row.
func (e *tpchEnv) measure(name string, l catalog.Layout, cons workload.Constraints) (LayoutRow, error) {
	if err := e.db.SetLayout(l); err != nil {
		return LayoutRow{}, err
	}
	obs, err := e.w.RunDetailed(e.db)
	if err != nil {
		return LayoutRow{}, err
	}
	m := obs.Metrics
	toc, err := workload.TOCCents(m, l, e.db.Cat, e.box)
	if err != nil {
		return LayoutRow{}, err
	}
	inlj, err := e.inljShare(l)
	if err != nil {
		return LayoutRow{}, err
	}
	return LayoutRow{
		Name:     name,
		Elapsed:  m.Elapsed,
		TOCCents: toc,
		PSR:      cons.PSR(m),
		INLJPct:  inlj,
	}, nil
}

// inljShare reports the fraction of joins planned as indexed nested-loop
// joins under a layout (the paper's %INLJ observation, §4.4.2).
func (e *tpchEnv) inljShare(l catalog.Layout) (float64, error) {
	var joins, inlj int
	for i := 0; i < e.pw.Len(); i++ {
		pl, err := e.pw.Plan(i, l)
		if err != nil {
			return 0, err
		}
		for _, a := range pl.JoinAlgos() {
			joins++
			if a == plan.IndexNLJoin {
				inlj++
			}
		}
	}
	if joins == 0 {
		return 0, nil
	}
	return float64(inlj) / float64(joins), nil
}

// runTPCHFigure produces Figures 3/5/7 (and the layouts for 4/6): the
// cost/performance comparison of simple layouts, OA and DOT at one relative
// SLA, on both boxes.
func runTPCHFigure(w io.Writer, opts Options, id string, modified bool, sla float64) (*FigureResult, error) {
	fig := &FigureResult{ID: id, Layouts: map[string]string{}}
	for _, box := range boxes() {
		env, err := newTpchEnv(box, opts, modified, false)
		if err != nil {
			return nil, err
		}
		cons := workload.Constraints{Relative: sla, Baseline: env.base}

		for _, nl := range core.SimpleLayouts(env.db.Cat, box) {
			row, err := env.measure(nl.Name, nl.Layout, cons)
			if err != nil {
				return nil, err
			}
			fig.addRow(box.Name, row)
		}

		oaLayout, err := core.ObjectAdvisor(env.input())
		if err != nil {
			return nil, err
		}
		oaRow, err := env.measure("OA", oaLayout, cons)
		if err != nil {
			return nil, err
		}
		fig.addRow(box.Name, oaRow)

		// DOT derives its constraints in estimate space (estimated L0 as
		// the reference), then the validation phase test-runs the
		// recommendation and refines on a miss (paper Fig. 2).
		res, val, err := core.OptimizeValidated(env.input(), core.Options{RelativeSLA: sla}, workload.DSSRunner{DB: env.db, W: env.w}, 3)
		if err != nil {
			return nil, err
		}
		if !res.Feasible {
			fig.note("%s: DOT found no feasible layout at SLA %g", box.Name, sla)
			continue
		}
		dotRow, err := env.measure("DOT", res.Layout, cons)
		if err != nil {
			return nil, err
		}
		fig.addRow(box.Name, dotRow)
		fig.Layouts[fmt.Sprintf("DOT %s (SLA %g)", box.Name, sla)] = res.Layout.String(env.db.Cat)
		fig.note("%s: DOT optimization took %v over %d layouts (validated PSR %.0f%%)",
			box.Name, res.PlanTime, res.Evaluated, val.PSR*100)
	}
	fig.print(w)
	return fig, nil
}

// Figure3 reproduces Fig. 3 (original TPC-H, relative SLA 0.5); the DOT
// layouts it records are Fig. 4.
func Figure3(w io.Writer, opts Options) (*FigureResult, error) {
	return runTPCHFigure(w, opts, "Figure 3: original TPC-H, relative SLA 0.5", false, 0.5)
}

// Figure5 reproduces Fig. 5 (modified TPC-H, relative SLA 0.5); its DOT
// layouts are Fig. 6.
func Figure5(w io.Writer, opts Options) (*FigureResult, error) {
	return runTPCHFigure(w, opts, "Figure 5: modified TPC-H, relative SLA 0.5", true, 0.5)
}

// Figure7 reproduces Fig. 7 (modified TPC-H, relative SLA 0.25).
func Figure7(w io.Writer, opts Options) (*FigureResult, error) {
	return runTPCHFigure(w, opts, "Figure 7: modified TPC-H, relative SLA 0.25", true, 0.25)
}

// Sec443 reproduces the §4.4.3 comparison: DOT vs exhaustive search on the
// 11-template subset workload over 8 objects, with capacity limits on the
// box's cheapest (spinning) class, comparing recommendation quality and
// planning time.
func Sec443(w io.Writer, opts Options) (*FigureResult, error) {
	fig := &FigureResult{ID: "Sec 4.4.3: DOT vs exhaustive search (TPC-H subset)", Layouts: map[string]string{}}
	for _, box := range boxes() {
		env, err := newTpchEnv(box, opts, false, true)
		if err != nil {
			return nil, err
		}
		cheapest := box.Cheapest().Class
		// Paper: capacity limits around 0.8x of the space ES wants on the
		// cheap class, then halved.
		dbSize := env.db.Cat.TotalSize()
		for _, frac := range []float64{0, 0.8, 0.4} {
			label := "no limit"
			b := box
			if frac > 0 {
				label = fmt.Sprintf("cap %.0f%% of DB", frac*100)
				if err := b.SetCapacity(cheapest, int64(frac*float64(dbSize))); err != nil {
					return nil, err
				}
			}
			cons := workload.Constraints{Relative: 0.5, Baseline: env.base}
			dot, err := core.Optimize(env.input(), core.Options{RelativeSLA: 0.5})
			if err != nil {
				return nil, err
			}
			es, err := core.Exhaustive(env.input(), core.Options{RelativeSLA: 0.5})
			if err != nil {
				return nil, err
			}
			for _, pair := range []struct {
				name string
				res  *core.Result
			}{{"DOT " + label, dot}, {"ES " + label, es}} {
				if !pair.res.Feasible {
					fig.note("%s %s: infeasible", box.Name, pair.name)
					continue
				}
				row, err := env.measure(pair.name, pair.res.Layout, cons)
				if err != nil {
					return nil, err
				}
				fig.addRow(box.Name, row)
				fig.note("%s %s: plan time %v over %d layouts", box.Name, pair.name,
					pair.res.PlanTime, pair.res.Evaluated)
			}
		}
	}
	fig.print(w)
	return fig, nil
}

// Provision reproduces §5.1, the generalized provisioning problem: run DOT
// for the original TPC-H workload on the Box 1 and Box 2 configurations and
// choose the feasible recommendation with the minimum TOC, ties going to
// the first box.
func Provision(w io.Writer, opts Options) (*FigureResult, error) {
	fig := &FigureResult{ID: "Sec 5.1: generalized provisioning (pick the box)", Layouts: map[string]string{}}
	var best *core.Result
	var bestCat *catalog.Catalog
	bestBox := ""
	for _, box := range boxes() {
		env, err := newTpchEnv(box, opts, false, false)
		if err != nil {
			return nil, err
		}
		res, err := core.Optimize(env.input(), core.Options{RelativeSLA: 0.5})
		if err != nil {
			return nil, fmt.Errorf("bench: provisioning %s: %w", box.Name, err)
		}
		fig.addRow(box.Name, LayoutRow{
			Name:     "DOT recommendation",
			Elapsed:  res.Metrics.Elapsed,
			TOCCents: res.TOCCents,
			PSR:      psrOf(res.Feasible),
		})
		if res.Feasible && (best == nil || res.TOCCents < best.TOCCents) {
			best, bestBox, bestCat = res, box.Name, env.db.Cat
		}
	}
	if best != nil {
		fig.note("chosen configuration: %s (estimated TOC %.4e cents)", bestBox, best.TOCCents)
		fig.Layouts["chosen "+bestBox] = best.Layout.String(bestCat)
	}
	fig.print(w)
	return fig, nil
}

// Discrete reproduces §5.2: DOT under the discrete-sized cost model at
// alpha 0, 0.5 and 1 on Box 1.
func Discrete(w io.Writer, opts Options) (*FigureResult, error) {
	fig := &FigureResult{ID: "Sec 5.2: discrete-sized storage cost model", Layouts: map[string]string{}}
	env, err := newTpchEnv(device.Box1(), opts, false, false)
	if err != nil {
		return nil, err
	}
	for _, a := range []float64{0, 0.5, 1} {
		in := env.input()
		if in.LayoutCost, err = provision.DiscreteCost(in.Box, a); err != nil {
			return nil, err
		}
		res, err := core.OptimizeBest(in, core.Options{RelativeSLA: 0.5})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("alpha=%.2f", a)
		if !res.Feasible {
			fig.note("%s: infeasible", name)
			continue
		}
		fig.addRow(env.box.Name, LayoutRow{
			Name:     name,
			Elapsed:  res.Metrics.Elapsed,
			TOCCents: res.TOCCents,
			PSR:      1,
		})
		fig.Layouts[name] = res.Layout.String(env.db.Cat)
	}
	fig.print(w)
	return fig, nil
}
