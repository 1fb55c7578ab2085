package core_test

import (
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/tpch"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// wrapped forwards Estimate and nothing else: the shape of an estimator a
// caller instruments by wrapping it (the benchmark's traced replay counts
// calls this way). It hides every optional capability of the estimator it
// wraps, CompileFor included.
type wrapped struct{ inner workload.Estimator }

func (w wrapped) Estimate(l catalog.Layout) (workload.Metrics, error) { return w.inner.Estimate(l) }

// wrappedSet forwards the replica form too, for estimators that have one.
type wrappedSet struct{ wrapped }

func (w wrappedSet) EstimateSet(l catalog.SetLayout) (workload.Metrics, error) {
	return w.inner.(workload.SetEstimator).EstimateSet(l)
}

func wrap(est workload.Estimator) workload.Estimator {
	if _, ok := est.(workload.SetEstimator); ok {
		return wrappedSet{wrapped{est}}
	}
	return wrapped{est}
}

// profiledInput builds a six-table catalog with a fixed mixed profile on
// box, estimated by ObservedEstimator (oltp=false) or ProfileEstimator.
func profiledInput(t *testing.T, box *device.Box, oltp bool) core.Input {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	prof := iosim.NewProfile()
	for i := 0; i < 6; i++ {
		tab, err := cat.CreateTable(string(rune('a'+i)), sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		cat.SetSize(tab.ID, int64(i+1)*3e9)
		prof.Add(tab.ID, device.SeqRead, float64(400_000*(6-i)))
		prof.Add(tab.ID, device.RandRead, float64(30_000*(i%3+1)))
		if i%2 == 1 {
			prof.Add(tab.ID, device.RandWrite, float64(5_000*i))
		}
	}
	ps := core.NewProfileSet()
	ps.SetSingle(prof)
	in := core.Input{Cat: cat, Box: box, Profiles: ps, Concurrency: 4}
	if oltp {
		est, err := workload.NewProfileEstimator(box, 4, prof, 800*time.Millisecond,
			workload.RunStats{Txns: 12_000, Elapsed: time.Minute},
			catalog.NewUniformLayout(cat, device.HSSD))
		if err != nil {
			t.Fatal(err)
		}
		in.Est = est
	} else {
		in.Est = &workload.ObservedEstimator{Box: box, Concurrency: 4,
			PerQuery: []workload.QueryObservation{{Profile: prof, CPU: 300 * time.Millisecond}}}
	}
	return in
}

// TestWrappedEstimatorMatchesBare: an estimator wrapped in one that exposes
// only Estimate (and EstimateSet, when the estimator has a replica form)
// gets the same answers from every search entry point as the bare
// estimator. Under NoCompile the two searches are the same search: layout,
// TOC bits, evaluations and estimator calls agree. Without it the bare
// estimator runs its compiled form and the wrapped one cannot, so only the
// answer — layout and TOC bits — must agree. The cases are the observed
// (DSS counts), profile (OLTP) and plan-aware TPC-H estimators on Box 2
// single-copy, and the two estimators with a replica form on the HTAP box
// at two copies per unit.
func TestWrappedEstimatorMatchesBare(t *testing.T) {
	dss := newDSSEnv(t, device.Box2(), true, tpch.SubsetWorkload).in
	cases := []struct {
		name string
		in   core.Input
		cap  int
	}{
		{"observed/box2", profiledInput(t, device.Box2(), false), 1},
		{"profile/box2", profiledInput(t, device.Box2(), true), 1},
		{"dss/box2", dss, 1},
		{"observed/htap", profiledInput(t, device.BoxHTAP(), false), 2},
		{"profile/htap", profiledInput(t, device.BoxHTAP(), true), 2},
	}
	opts := core.Options{RelativeSLA: 0.5}
	line := func(sl catalog.SetLayout, res *core.Result) string {
		return fmt.Sprintf("layout=%s toc=%016x evaluated=%d estimator_calls=%d",
			hex.EncodeToString([]byte(sl.Key())), math.Float64bits(res.TOCCents), res.Evaluated, res.EstimatorCalls)
	}
	answer := func(sl catalog.SetLayout, res *core.Result) string {
		return fmt.Sprintf("layout=%s toc=%016x", hex.EncodeToString([]byte(sl.Key())), math.Float64bits(res.TOCCents))
	}
	for _, c := range cases {
		objs := c.in.Cat.Objects()
		classes := c.in.Box.Classes()
		seed := make(catalog.SetLayout)
		for i, o := range objs {
			seed[o.ID] = device.Singleton(classes[i%len(classes)])
		}
		free := []catalog.ObjectID{objs[0].ID, objs[len(objs)/2].ID, objs[len(objs)-1].ID}
		base := catalog.NewUniformLayout(c.in.Cat, c.in.Box.Cheapest().Class)

		// run returns one line per entry point: the full line and the answer.
		run := func(in core.Input) (full, ans map[string]string) {
			t.Helper()
			full, ans = map[string]string{}, map[string]string{}
			record := func(what string, res *core.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s/%s (NoCompile=%v): %v", c.name, what, in.NoCompile, err)
				}
				full[what], ans[what] = line(res.SetLayout, res), answer(res.SetLayout, res)
			}
			res, err := core.OptimizeBest(in, opts)
			record("best", res, err)
			res, err = core.OptimizeIncremental(in, core.IncrementalOptions{Options: opts, Seed: seed})
			record("incremental", res, err)
			res, err = core.Exhaustive(in, opts)
			record("exhaustive", res, err)
			res, err = core.ExhaustivePartial(in, opts, free, base)
			record("partial", res, err)
			in.Replication = core.ReplicationConfig{Enabled: true, MaxReplicas: c.cap}
			res, err = core.OptimizeBest(in, opts)
			record("replicated", res, err)
			return full, ans
		}
		for _, noCompile := range []bool{true, false} {
			bare, wrappedIn := c.in, c.in
			wrappedIn.Est = wrap(c.in.Est)
			bare.NoCompile, wrappedIn.NoCompile = noCompile, noCompile
			wantFull, wantAns := run(bare)
			gotFull, gotAns := run(wrappedIn)
			want, got := wantAns, gotAns
			if noCompile {
				want, got = wantFull, gotFull
			}
			for what, w := range want {
				if got[what] != w {
					t.Errorf("%s/%s (NoCompile=%v): wrapped %s\n  bare %s", c.name, what, noCompile, got[what], w)
				}
			}
		}
	}
}
