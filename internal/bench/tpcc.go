package bench

import (
	"fmt"
	"io"
	"sort"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/tpcc"
	"dotprov/internal/workload"
)

// tpccEnv is a built TPC-C database on one box with a test-run profile
// (paper §4.5.1: the workload is profiled once on the All H-SSD layout).
type tpccEnv struct {
	db     *engine.DB
	box    *device.Box
	driver *tpcc.Driver
	probe  *tpcc.RunResult // test run on All H-SSD
	est    workload.Estimator
}

func newTpccEnv(box *device.Box, opts Options) (*tpccEnv, error) {
	db := engine.New(box, engine.DefaultPoolPages)
	if err := tpcc.Build(db, opts.TpccCfg); err != nil {
		return nil, err
	}
	db.ResizePool(db.PaperPoolPages())
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		return nil, err
	}
	driver := &tpcc.Driver{
		Cfg:     opts.TpccCfg,
		Workers: opts.TpccWorkers,
		Period:  opts.TpccPeriod,
		Seed:    opts.TpchSeed,
	}
	db.ClearPool()
	probe, err := driver.Run(db)
	if err != nil {
		return nil, err
	}
	est, err := driver.Estimator(db, probe)
	if err != nil {
		return nil, err
	}
	return &tpccEnv{db: db, box: box, driver: driver, probe: probe, est: est}, nil
}

func (e *tpccEnv) input() core.Input {
	return core.Input{
		Cat:         e.db.Cat,
		Box:         e.box,
		Est:         e.est,
		Profiles:    profileSetFromRun(e.probe),
		Concurrency: e.driver.Workers,
	}
}

func profileSetFromRun(run *tpcc.RunResult) *core.ProfileSet {
	ps := core.NewProfileSet()
	ps.SetSingle(run.Profile)
	return ps
}

// measure runs the TPC-C mix on a layout and reports tpmC and TOC
// (cents per New-Order transaction).
func (e *tpccEnv) measure(name string, l catalog.Layout) (LayoutRow, error) {
	if err := e.db.SetLayout(l); err != nil {
		return LayoutRow{}, err
	}
	e.db.ClearPool()
	run, err := e.driver.Run(e.db)
	if err != nil {
		return LayoutRow{}, err
	}
	toc, err := workload.TOCCents(run.Metrics, l, e.db.Cat, e.box)
	if err != nil {
		return LayoutRow{}, err
	}
	return LayoutRow{Name: name, TpmC: run.TpmC, TOCCents: toc}, nil
}

// Figure8 reproduces Fig. 8: tpmC vs TOC for the simple layouts and for DOT
// at relative SLAs 0.5, 0.25 and 0.125, on both boxes. The Box 2 DOT
// layouts are Table 3.
func Figure8(w io.Writer, opts Options) (*FigureResult, error) {
	fig := &FigureResult{ID: "Figure 8: TPC-C results", Layouts: map[string]string{}}
	for _, box := range boxes() {
		env, err := newTpccEnv(box, opts)
		if err != nil {
			return nil, err
		}
		for _, nl := range core.SimpleLayouts(env.db.Cat, box) {
			row, err := env.measure(nl.Name, nl.Layout)
			if err != nil {
				return nil, err
			}
			fig.addRow(box.Name, row)
		}
		for _, sla := range []float64{0.5, 0.25, 0.125} {
			res, err := core.OptimizeBest(env.input(), core.Options{
				RelativeSLA: sla, Baseline: &env.probe.Metrics,
			})
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("DOT SLA %g", sla)
			if !res.Feasible {
				fig.note("%s %s: infeasible", box.Name, name)
				continue
			}
			row, err := env.measure(name, res.Layout)
			if err != nil {
				return nil, err
			}
			fig.addRow(box.Name, row)
			if box.Device(device.LSSDRAID0) != nil { // Box 2: record Table 3
				fig.Layouts[fmt.Sprintf("Table 3: DOT Box 2 SLA %g", sla)] = res.Layout.String(env.db.Cat)
			}
			fig.note("%s %s: plan time %v over %d layouts", box.Name, name, res.PlanTime, res.Evaluated)
		}
	}
	fig.print(w)
	return fig, nil
}

// Figure9 reproduces Fig. 9: ES vs DOT on TPC-C (Box 2) at relative SLA
// 0.25 with H-SSD capacity limits. The paper's full 19-object M^N space is
// out of reach for plain enumeration, so ES frees the objects carrying the
// highest I/O pressure and pins the tiny remainder to DOT's choice
// (documented substitution; DESIGN.md "Scaling note").
func Figure9(w io.Writer, opts Options) (*FigureResult, error) {
	fig := &FigureResult{ID: "Figure 9: ES vs DOT, TPC-C on Box 2, SLA 0.25", Layouts: map[string]string{}}
	box := device.Box2()
	env, err := newTpccEnv(box, opts)
	if err != nil {
		return nil, err
	}
	dbSize := env.db.Cat.TotalSize()
	for _, frac := range []float64{0, 0.7} {
		label := "no limit"
		if frac > 0 {
			label = fmt.Sprintf("H-SSD cap %.0f%% of DB", frac*100)
			if err := box.SetCapacity(device.HSSD, int64(frac*float64(dbSize))); err != nil {
				return nil, err
			}
		}
		opt := core.Options{RelativeSLA: 0.25, Baseline: &env.probe.Metrics}
		dot, dotSLA, err := core.OptimizeRelaxing(env.input(), opt, 0.01)
		if err != nil {
			return nil, err
		}
		free := hottestObjects(env, 10)
		es, err := core.ExhaustivePartial(env.input(), core.Options{
			RelativeSLA: dotSLA, Baseline: &env.probe.Metrics,
		}, free, dot.Layout)
		if err != nil {
			return nil, err
		}
		for _, pair := range []struct {
			name string
			res  *core.Result
		}{{"DOT " + label, dot}, {"ES " + label, es}} {
			if !pair.res.Feasible {
				fig.note("%s: infeasible", pair.name)
				continue
			}
			row, err := env.measure(pair.name, pair.res.Layout)
			if err != nil {
				return nil, err
			}
			fig.addRow(box.Name, row)
			fig.note("%s: plan time %v over %d layouts (final SLA %g)",
				pair.name, pair.res.PlanTime, pair.res.Evaluated, dotSLA)
		}
	}
	fig.print(w)
	return fig, nil
}

// hottestObjects ranks objects by their I/O time under the box's cheapest
// class in the test-run profile and returns the top n.
func hottestObjects(env *tpccEnv, n int) []catalog.ObjectID {
	cheap := env.box.ServiceTimes(env.driver.Workers)[env.box.Cheapest().Class]
	type hot struct {
		id catalog.ObjectID
		t  float64
	}
	var hots []hot
	for _, o := range env.db.Cat.Objects() {
		hots = append(hots, hot{
			id: o.ID,
			t:  float64(env.probe.Profile.ObjectIOTime(o.ID, cheap)),
		})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].t != hots[j].t {
			return hots[i].t > hots[j].t
		}
		return hots[i].id < hots[j].id
	})
	if n > len(hots) {
		n = len(hots)
	}
	out := make([]catalog.ObjectID, n)
	for i := 0; i < n; i++ {
		out[i] = hots[i].id
	}
	return out
}
