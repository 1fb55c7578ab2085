package core_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/profiler"
	"dotprov/internal/tpch"
	"dotprov/internal/workload"
)

// dssEnv is a loaded TPC-H database with one workload profiled on it.
type dssEnv struct {
	db *engine.DB
	w  *workload.DSS
	in core.Input
}

func newDSSEnv(t *testing.T, box *device.Box, subset bool, mkWorkload func(tpch.Config, int64) *workload.DSS) *dssEnv {
	t.Helper()
	cfg := tpch.Config{ScaleFactor: 0.001, Seed: 1}
	db := engine.New(box, engine.DefaultPoolPages)
	build := tpch.Build
	if subset {
		build = tpch.BuildSubset
	}
	if err := build(db, cfg); err != nil {
		t.Fatal(err)
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, box.MostExpensive().Class)); err != nil {
		t.Fatal(err)
	}
	w := mkWorkload(cfg, 2)
	ps, err := profiler.ProfileDSSEstimates(db, w)
	if err != nil {
		t.Fatal(err)
	}
	return &dssEnv{db: db, w: w, in: core.Input{Cat: db.Cat, Box: box, Est: w.Estimator(db), Profiles: ps, Concurrency: 1}}
}

// Run implements core.Runner: a cold test run with per-query statistics.
func (e *dssEnv) Run(l catalog.Layout) (workload.Observation, error) {
	if err := e.db.SetLayout(l); err != nil {
		return workload.Observation{}, err
	}
	return e.w.RunDetailed(e.db)
}

// TestDSSSearchGolden pins the search over the plan-aware TPC-H estimator:
// which layout wins, at which TOC bits, after how many evaluations and
// estimator calls, on Box 1 and Box 2 through Optimize, OptimizeBest,
// OptimizeValidated (the offline pipeline) and the §4.4.3 exhaustive search
// over the 8-object subset, each with NoCompile false and true. The two
// settings must record the same numbers: whatever evaluation path the
// estimator takes, the search walks the same candidates. Regenerate with
// `go test ./internal/core -run TestDSSSearchGolden -update` only when a
// change of search is intended.
func TestDSSSearchGolden(t *testing.T) {
	var out bytes.Buffer
	for _, mkBox := range []func() *device.Box{device.Box1, device.Box2} {
		orig := newDSSEnv(t, mkBox(), false, tpch.OriginalWorkload)
		mod := newDSSEnv(t, mkBox(), false, tpch.ModifiedWorkload)
		sub := newDSSEnv(t, mkBox(), true, tpch.SubsetWorkload)
		// §4.4.3's capacity-limited variant: the cheapest class holds 40% of
		// the database.
		capped := newDSSEnv(t, mkBox(), true, tpch.SubsetWorkload)
		if err := capped.in.Box.SetCapacity(capped.in.Box.Cheapest().Class, int64(0.4*float64(capped.db.Cat.TotalSize()))); err != nil {
			t.Fatal(err)
		}
		for _, noCompile := range []bool{false, true} {
			name := fmt.Sprintf("%s/%s", orig.in.Box.Name, map[bool]string{false: "compiled", true: "map"}[noCompile])
			record := func(what string, res *core.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s/%s: %v", name, what, err)
				}
				fmt.Fprintf(&out, "%s/%s layout=%s feasible=%v toc=%016x evaluated=%d estimator_calls=%d\n",
					name, what, hex.EncodeToString([]byte(res.Layout.Key())), res.Feasible,
					math.Float64bits(res.TOCCents), res.Evaluated, res.EstimatorCalls)
			}
			for _, e := range []*dssEnv{orig, mod, sub, capped} {
				e.in.NoCompile = noCompile
			}
			res, err := core.Optimize(orig.in, core.Options{RelativeSLA: 0.8})
			record("original/optimize@0.8", res, err)
			res, err = core.OptimizeBest(orig.in, core.Options{RelativeSLA: 0.8})
			record("original/best@0.8", res, err)
			res, val, err := core.OptimizeValidated(orig.in, core.Options{RelativeSLA: 0.5}, orig, 3)
			record("original/validated@0.5", res, err)
			if val == nil {
				t.Fatalf("%s: no validation run", name)
			}
			fmt.Fprintf(&out, "%s/original/validated@0.5 satisfied=%v psr=%g\n", name, val.Satisfied, val.PSR)
			res, err = core.Optimize(mod.in, core.Options{RelativeSLA: 0.5})
			record("modified/optimize@0.5", res, err)
			res, err = core.OptimizeBest(mod.in, core.Options{RelativeSLA: 0.25})
			record("modified/best@0.25", res, err)
			res, err = core.Exhaustive(sub.in, core.Options{RelativeSLA: 0.5})
			record("subset/exhaustive@0.5", res, err)
			res, err = core.Exhaustive(capped.in, core.Options{RelativeSLA: 0.5})
			record("subset-cap40/exhaustive@0.5", res, err)
		}
	}

	path := filepath.Join("testdata", "dss.golden")
	// The flag is declared by the package's internal golden test, which is
	// part of the same test binary.
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gl, wl := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("search changed at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("search changed: %d lines recorded, %d produced", len(wl), len(gl))
	}
}
