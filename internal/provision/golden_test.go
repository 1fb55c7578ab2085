package provision

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sweep.golden from the current implementation")

// withDiscreteModel installs the §5.2 model at alpha into a DOT input. It is
// the one place this file touches the cost-model hook, so it is the only
// part of the file that follows a change of the hook's type.
func withDiscreteModel(t *testing.T, in core.Input, alpha float64) core.Input {
	t.Helper()
	model, err := DiscreteCost(in.Box, alpha)
	if err != nil {
		t.Fatal(err)
	}
	in.LayoutCost = model
	return in
}

// goldenFixture is a seeded six-table database (about 100 GB, so the small
// candidate boxes are over capacity), its union I/O profile, and a
// heat-based partitioning built from seeded per-object extent statistics.
func goldenFixture(t *testing.T) (*catalog.Catalog, iosim.Profile, *catalog.Partitioning) {
	t.Helper()
	rng := rand.New(rand.NewSource(2011))
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	prof := iosim.NewProfile()
	stats := catalog.ExtentStats{ByObject: make(map[catalog.ObjectID][]catalog.Extent)}
	for i := 0; i < 6; i++ {
		tab, err := cat.CreateTable(string(rune('a'+i)), sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		size := int64(4e9 + rng.Float64()*1.6e10)
		cat.SetSize(tab.ID, size)
		// Heat spans two orders of magnitude (every third table is cold), and
		// every other table is point-read hot; the rest are scanned.
		heat := []float64{1, 0.1, 0.01}[i%3]
		prof.Add(tab.ID, device.SeqRead, heat*float64(rng.Intn(2_000_000)))
		if i%2 == 0 {
			prof.Add(tab.ID, device.RandRead, heat*float64(rng.Intn(200_000)))
			prof.Add(tab.ID, device.RandWrite, heat*float64(rng.Intn(20_000)))
		} else {
			prof.Add(tab.ID, device.RandRead, heat*float64(rng.Intn(5_000)))
		}
		if i%3 == 0 {
			prof.Add(tab.ID, device.SeqWrite, float64(rng.Intn(50_000)))
		}
		pages := (size + catalog.DefaultPageBytes - 1) / catalog.DefaultPageBytes
		for e := 0; e < 4; e++ {
			stats.ByObject[tab.ID] = append(stats.ByObject[tab.ID],
				catalog.Extent{Pages: pages/4 + 1, Count: float64(rng.Intn(1000) * rng.Intn(50))})
		}
	}
	pt, err := catalog.BuildPartitioning(cat, stats, catalog.PartitionOptions{MaxUnitsPerObject: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Partitioned() {
		t.Fatal("golden fixture did not split any object")
	}
	return cat, prof, pt
}

// goldenInput binds the fixture to a box with one of the two shipped
// profile-driven estimator kinds: the observed-counts (elapsed objective)
// or the test-run (throughput objective) estimator.
func goldenInput(t *testing.T, cat *catalog.Catalog, prof iosim.Profile, box *device.Box, kind string) core.Input {
	t.Helper()
	ps := core.NewProfileSet()
	ps.SetSingle(prof)
	in := core.Input{Cat: cat, Box: box, Profiles: ps, Concurrency: 4}
	switch kind {
	case "observed":
		in.Est = &workload.ObservedEstimator{Box: box, Concurrency: in.Concurrency,
			PerQuery: []workload.QueryObservation{{Profile: prof, CPU: 300 * time.Millisecond}}}
	case "profile":
		est, err := workload.NewProfileEstimator(box, in.Concurrency, prof, 800*time.Millisecond,
			workload.RunStats{Txns: 12000, Elapsed: 90 * time.Second},
			catalog.NewUniformLayout(cat, box.MostExpensive().Class))
		if err != nil {
			t.Fatal(err)
		}
		in.Est = est
	default:
		t.Fatalf("unknown estimator kind %q", kind)
	}
	return in
}

// compactHex renders a recommendation as the hex of its compact encoding
// over the catalog the search placed: one class-set mask byte per unit, in
// unit order.
func compactHex(t *testing.T, cat *catalog.Catalog, sl catalog.SetLayout) string {
	t.Helper()
	cl, ok := catalog.CompactFromSetLayout(cat, sl)
	if !ok {
		t.Fatalf("recommendation %v does not encode over its catalog", sl)
	}
	return hex.EncodeToString(cl.Bytes())
}

// TestSweepGolden pins §5 end to end — which layout every candidate box
// gets, at which TOC bits, after how many evaluations and engine memo
// misses, which candidate wins — for SweepConfigurations over three grids
// (sweepGrid, a three-alpha grid, a replicated linear one) x {observed,
// test-run} estimator x {object, partition} granularity x {compiled, map} x
// Workers {1, 8}, and for OptimizeBest and Exhaustive under the §5.2 model
// set directly. Choice.EstimatorCalls is deliberately absent: it describes
// how a sweep shares estimates between candidates, not what it recommends.
// A refactor of the sweep or of the cost-model hook must leave the file
// byte-identical. Regenerate with `go test ./internal/provision -run
// TestSweepGolden -update` only when a change of search is intended.
func TestSweepGolden(t *testing.T) {
	cat, prof, pt := goldenFixture(t)
	opts := core.Options{RelativeSLA: 0.5}
	grids := []struct {
		name       string
		grid       Grid
		replicated bool
	}{
		{name: "two-alpha", grid: sweepGrid()},
		{name: "three-alpha", grid: Grid{
			Devices: []DeviceOption{
				{Class: device.HDDRAID0, Counts: []int{0, 2}},
				{Class: device.LSSD, Counts: []int{0, 1}},
				{Class: device.HSSD, Counts: []int{0, 1, 2}},
			},
			Alphas:     []float64{0, 0.5, 1},
			MaxClasses: 2,
		}},
		{name: "replicated", replicated: true, grid: Grid{
			Devices: []DeviceOption{
				{Class: device.HDDRAID0, Counts: []int{0, 1}},
				{Class: device.LSSD, Counts: []int{0, 2}},
				{Class: device.HSSD, Counts: []int{0, 1}},
			},
		}},
	}
	paths := map[bool]string{false: "compiled", true: "map"}
	var out bytes.Buffer
	for _, g := range grids {
		for _, kind := range []string{"observed", "profile"} {
			for _, gran := range []string{"object", "partition"} {
				base := goldenInput(t, cat, prof, g.grid.Universe(), kind)
				if gran == "partition" {
					var err error
					if base, err = base.Partitioned(pt); err != nil {
						t.Fatal(err)
					}
				}
				if g.replicated {
					base.Replication = core.ReplicationConfig{Enabled: true, MaxReplicas: 2}
				}
				for _, noCompile := range []bool{false, true} {
					for _, workers := range []int{1, 8} {
						name := fmt.Sprintf("sweep/%s/%s/%s/%s/workers%d", g.name, kind, gran, paths[noCompile], workers)
						in := base
						in.NoCompile, in.Workers = noCompile, workers
						ch, err := SweepConfigurations(in, g.grid, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for i, cr := range ch.Results {
							fmt.Fprintf(&out, "%s/%02d name=%q feasible=%v layout=%s toc=%016x evaluated=%d estimator_calls=%d failure=%q\n",
								name, i, cr.Name, cr.Result.Feasible, compactHex(t, base.Cat, cr.Result.SetLayout),
								math.Float64bits(cr.Result.TOCCents), cr.Result.Evaluated, cr.Result.EstimatorCalls, cr.Failure)
						}
						fmt.Fprintf(&out, "%s best=%d evaluated=%d\n", name, ch.Best, ch.Evaluated)
					}
				}
			}
		}
	}

	// The §5.2 model installed directly, outside a sweep: both DOT policies
	// and the exhaustive walk.
	for _, kind := range []string{"observed", "profile"} {
		for _, alpha := range []float64{0.5, 1} {
			for _, noCompile := range []bool{false, true} {
				in := withDiscreteModel(t, goldenInput(t, cat, prof, device.Box1(), kind), alpha)
				in.NoCompile = noCompile
				for _, s := range []struct {
					what   string
					search func(core.Input, core.Options) (*core.Result, error)
				}{{"best", core.OptimizeBest}, {"exhaustive", core.Exhaustive}} {
					name := fmt.Sprintf("discrete/%s/alpha%g/%s/%s", kind, alpha, paths[noCompile], s.what)
					res, err := s.search(in, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					fmt.Fprintf(&out, "%s feasible=%v layout=%s toc=%016x evaluated=%d estimator_calls=%d\n",
						name, res.Feasible, compactHex(t, cat, res.SetLayout),
						math.Float64bits(res.TOCCents), res.Evaluated, res.EstimatorCalls)
				}
			}
		}
	}

	path := filepath.Join("testdata", "sweep.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("sweep changed at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("sweep changed: %d lines recorded, %d produced", len(wl), len(gl))
	}
}
