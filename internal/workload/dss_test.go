package workload_test

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/profiler"
	"dotprov/internal/tpch"
	"dotprov/internal/workload"
)

var tpchCfg = tpch.Config{ScaleFactor: 0.001, Seed: 1}

// tpchDB loads TPC-H (or the §4.4.3 subset) at SF 0.001 on a box.
func tpchDB(t testing.TB, box *device.Box, subset bool) *engine.DB {
	t.Helper()
	db := engine.New(box, engine.DefaultPoolPages)
	build := tpch.Build
	if subset {
		build = tpch.BuildSubset
	}
	if err := build(db, tpchCfg); err != nil {
		t.Fatal(err)
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, box.MostExpensive().Class)); err != nil {
		t.Fatal(err)
	}
	return db
}

// replanned is the oracle: every query planned afresh through
// engine.PlanUnder, no prepared form and no table involved.
func replanned(t *testing.T, db *engine.DB, w *workload.DSS, l catalog.Layout) workload.Metrics {
	t.Helper()
	m := workload.Metrics{PerQuery: make([]time.Duration, 0, len(w.Queries))}
	for _, q := range w.Queries {
		pl, err := db.PlanUnder(q, l)
		if err != nil {
			t.Fatal(err)
		}
		m.PerQuery = append(m.PerQuery, pl.Est.Time())
		m.Elapsed += pl.Est.Time()
	}
	return m
}

// TestDSSEstimatorMatchesReplanning is the oracle property: for seeded
// random layouts and random move chains over them, the estimate served from
// the per-query cost tables — through Estimate, through EstimateCompact and
// through a chain of EstimateDelta steps, each from the previous step's
// metrics — equals a fresh engine.PlanUnder sum, PerQuery included, bit for
// bit. It holds with the default table cap and with the cap forced to 0
// (nothing retained, every lookup plans).
func TestDSSEstimatorMatchesReplanning(t *testing.T) {
	for _, limit := range []int64{-1, 0} {
		for bi, mkBox := range []func() *device.Box{device.Box1, device.Box2} {
			box := mkBox()
			db := tpchDB(t, box, false)
			classes := box.Classes()
			objs := db.Cat.Objects()
			for wi, w := range []*workload.DSS{tpch.OriginalWorkload(tpchCfg, 2), tpch.ModifiedWorkload(tpchCfg, 2)} {
				est := w.Estimator(db)
				if limit >= 0 {
					workload.SetCostTableLimit(est, limit)
				}
				ce := workload.CompileEstimator(est, db.Cat).(workload.CompactEstimator)
				rng := rand.New(rand.NewSource(int64(7 + 10*bi + wi)))
				for trial := 0; trial < 6; trial++ {
					l := make(catalog.Layout)
					for _, o := range objs {
						l[o.ID] = classes[rng.Intn(len(classes))]
					}
					cl, ok := catalog.CompactFromSetLayout(db.Cat, catalog.SingletonSetLayout(l))
					if !ok {
						t.Fatal("layout does not encode")
					}
					want := replanned(t, db, w, l)
					got, err := est.Estimate(l)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s trial %d: Estimate = %+v, %v; replanned %+v", box.Name, w.Name, trial, got, err, want)
					}
					base, err := ce.EstimateCompact(cl)
					if err != nil || !reflect.DeepEqual(base, want) {
						t.Fatalf("%s/%s trial %d: EstimateCompact = %+v, %v; replanned %+v", box.Name, w.Name, trial, base, err, want)
					}
					// A chain of one- to three-object moves, each estimated from the
					// step before it.
					for step := 0; step < 12; step++ {
						var moves []workload.ObjectMove
						for n := 1 + rng.Intn(3); n > 0; n-- {
							o := objs[rng.Intn(len(objs))]
							from, _ := cl.Get(o.ID)
							to := device.Singleton(classes[rng.Intn(len(classes))])
							if from == to {
								continue
							}
							cl.Set(o.ID, to)
							l[o.ID], _ = to.Single()
							moves = append(moves, workload.ObjectMove{Obj: o.ID, From: from, To: to})
						}
						base, err = ce.EstimateDelta(cl, base, moves)
						if want := replanned(t, db, w, l); err != nil || !reflect.DeepEqual(base, want) {
							t.Fatalf("%s/%s trial %d step %d: EstimateDelta(%v) = %+v, %v; replanned %+v",
								box.Name, w.Name, trial, step, moves, base, err, want)
						}
					}
				}
				lookups, plans := est.(interface{ PlanCounts() (int64, int64) }).PlanCounts()
				switch retained := workload.CostTableRetained(est); {
				case limit == 0 && (retained != 0 || plans != lookups):
					t.Fatalf("cap 0: %d retained, %d plans of %d lookups; want nothing kept and every lookup planned", retained, plans, lookups)
				case limit < 0 && (retained != plans || plans >= lookups):
					t.Fatalf("default cap: %d retained, %d plans of %d lookups; want every plan kept and the repeats served from the tables", retained, plans, lookups)
				}
			}
		}
	}
}

// TestCostTableCapHolds fills the tables past a small cap: the estimator
// keeps exactly that many plan times and goes on answering correctly.
func TestCostTableCapHolds(t *testing.T) {
	box := device.Box1()
	db := tpchDB(t, box, false)
	w := tpch.OriginalWorkload(tpchCfg, 2)
	est := w.Estimator(db)
	workload.SetCostTableLimit(est, 40)
	for _, c := range box.Classes() {
		l := catalog.NewUniformLayout(db.Cat, c)
		got, err := est.Estimate(l)
		if want := replanned(t, db, w, l); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("all-%v: Estimate = %+v, %v; replanned %+v", c, got, err, want)
		}
	}
	if n := workload.CostTableRetained(est); n != 40 {
		t.Fatalf("retained %d plan times, cap is 40", n)
	}
}

// TestCostTableCapZeroReproducesDSSGolden re-runs every search pinned in
// internal/core/testdata/dss.golden with the estimator's table cap forced
// to 0 — every lookup a plan — and requires each recorded line bit for bit:
// the tables are a cache of the planner, never a second opinion.
func TestCostTableCapZeroReproducesDSSGolden(t *testing.T) {
	f, err := os.Open("../core/testdata/dss.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type env struct {
		db *engine.DB
		w  *workload.DSS
		in core.Input
	}
	envs := map[string]*env{}
	envFor := func(boxName, wname string) *env {
		key := boxName + "/" + wname
		if e := envs[key]; e != nil {
			return e
		}
		box := map[string]func() *device.Box{"Box 1": device.Box1, "Box 2": device.Box2}[boxName]()
		subset := strings.HasPrefix(wname, "subset")
		db := tpchDB(t, box, subset)
		w := map[string]func(tpch.Config, int64) *workload.DSS{
			"original": tpch.OriginalWorkload, "modified": tpch.ModifiedWorkload,
			"subset": tpch.SubsetWorkload, "subset-cap40": tpch.SubsetWorkload,
		}[wname](tpchCfg, 2)
		if wname == "subset-cap40" {
			if err := box.SetCapacity(box.Cheapest().Class, int64(0.4*float64(db.Cat.TotalSize()))); err != nil {
				t.Fatal(err)
			}
		}
		ps, err := profiler.ProfileDSSEstimates(db, w)
		if err != nil {
			t.Fatal(err)
		}
		e := &env{db: db, w: w, in: core.Input{Cat: db.Cat, Box: box, Profiles: ps, Concurrency: 1}}
		envs[key] = e
		return e
	}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want := sc.Text()
		name, _, isSearch := strings.Cut(want, " layout=")
		if !isSearch {
			continue // the validated run's "satisfied= psr=" line
		}
		// <box>/<compiled|map>/<workload>/<entry point>@<sla>
		parts := strings.Split(name, "/")
		entry, slaText, _ := strings.Cut(parts[3], "@")
		sla, err := strconv.ParseFloat(slaText, 64)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		e := envFor(parts[0], parts[2])
		in := e.in
		in.NoCompile = parts[1] == "map"
		in.Est = e.w.Estimator(e.db)
		workload.SetCostTableLimit(in.Est, 0)
		opts := core.Options{RelativeSLA: sla}
		var res *core.Result
		switch entry {
		case "optimize":
			res, err = core.Optimize(in, opts)
		case "best":
			res, err = core.OptimizeBest(in, opts)
		case "validated":
			res, _, err = core.OptimizeValidated(in, opts, runner{e.db, e.w}, 3)
		case "exhaustive":
			res, err = core.Exhaustive(in, opts)
		default:
			t.Fatalf("%q: unknown entry point", name)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := fmt.Sprintf("%s layout=%s feasible=%v toc=%016x evaluated=%d estimator_calls=%d",
			name, hex.EncodeToString([]byte(res.Layout.Key())), res.Feasible,
			math.Float64bits(res.TOCCents), res.Evaluated, res.EstimatorCalls)
		if got != want {
			t.Fatalf("with nothing retained the search changed:\n got  %s\n want %s", got, want)
		}
		if n := workload.CostTableRetained(in.Est); n != 0 {
			t.Fatalf("%s: %d plan times retained under a cap of 0", name, n)
		}
		lines++
	}
	if err := sc.Err(); err != nil || lines == 0 {
		t.Fatalf("read %d golden lines: %v", lines, err)
	}
}

// runner is the validation phase's probe: a cold test run on the layout.
type runner struct {
	db *engine.DB
	w  *workload.DSS
}

func (r runner) Run(l catalog.Layout) (workload.Observation, error) {
	if err := r.db.SetLayout(l); err != nil {
		return workload.Observation{}, err
	}
	return r.w.RunDetailed(r.db)
}
