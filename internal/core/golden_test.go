package core

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

	"dotprov/internal/catalog"
	"dotprov/internal/device"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/search.golden from the current implementation")

// goldenLine renders one search outcome: the recommended placement as the
// canonical class-set key (a single-copy recommendation is its singleton
// lift, so searches at every copy cap are comparable), the TOC bits and the
// work counters.
func goldenLine(name string, sl catalog.SetLayout, res *Result) string {
	return fmt.Sprintf("%s layout=%s feasible=%v toc=%016x evaluated=%d estimator_calls=%d\n",
		name, hex.EncodeToString([]byte(sl.Key())), res.Feasible,
		math.Float64bits(res.TOCCents), res.Evaluated, res.EstimatorCalls)
}

// TestSearchGolden pins the search itself — which layout wins, at which TOC
// bits, after how many evaluations and estimator calls — for every public
// entry point over seeded random inputs: 3 boxes x DSS/OLTP (plus the HTAP
// scan+lookup fixture) x copy cap {1 (zero config), 1, 2} x {compiled, map}
// x {cold DOT, incremental, exhaustive, partitioned}. A refactor of the
// evaluation path must leave the file byte-identical; a diff means a
// different search, not a different speed.
// Regenerate with `go test ./internal/core -run TestSearchGolden -update`
// only when a change of search is intended.
func TestSearchGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1211))
	boxes := []func() *device.Box{device.Box1, device.Box2, device.BoxHTAP}
	slas := []float64{1, 0.7, 0.3, 0.05}
	var out bytes.Buffer
	for trial := 0; trial < 13; trial++ {
		var in Input
		var opts Options
		if trial < 12 {
			in = randomReplicaInput(t, rng, boxes[trial%len(boxes)](), trial%2 == 1)
			opts = Options{RelativeSLA: slas[rng.Intn(len(slas))]}
		} else {
			// The fixture where a second copy strictly wins (non-total read
			// order), so genuinely replicated recommendations are pinned too.
			in = htapScanLookupInput(t)
			opts = Options{RelativeSLA: 0.5}
		}
		classes := in.Box.Classes()

		// Deployed layouts the incremental searches start from: a random
		// single-class layout, and the same with a second copy on some units.
		seed := make(catalog.Layout)
		seedSet := make(catalog.SetLayout)
		stats := catalog.ExtentStats{ByObject: make(map[catalog.ObjectID][]catalog.Extent)}
		for _, o := range in.Cat.Objects() {
			c := classes[rng.Intn(len(classes))]
			seed[o.ID] = c
			seedSet[o.ID] = device.Singleton(c)
			if rng.Intn(2) == 0 {
				seedSet[o.ID] = seedSet[o.ID].Add(classes[rng.Intn(len(classes))])
			}
			pages := (o.SizeBytes + catalog.DefaultPageBytes - 1) / catalog.DefaultPageBytes
			for e := 0; e < 4; e++ {
				stats.ByObject[o.ID] = append(stats.ByObject[o.ID],
					catalog.Extent{Pages: pages/4 + 1, Count: float64(rng.Intn(1000) * rng.Intn(50))})
			}
		}
		pt, err := catalog.BuildPartitioning(in.Cat, stats, catalog.PartitionOptions{MaxUnitsPerObject: 3})
		if err != nil {
			t.Fatal(err)
		}

		for _, noCompile := range []bool{false, true} {
			in.NoCompile = noCompile
			name := fmt.Sprintf("trial%02d/%s", trial, map[bool]string{false: "compiled", true: "map"}[noCompile])
			record := func(what string, res *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s/%s: %v", name, what, err)
				}
				out.WriteString(goldenLine(name+"/"+what, res.SetLayout, res))
			}
			partitioned := func(what string, in Input) {
				t.Helper()
				pres, err := OptimizePartitioned(in, pt, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, what, err)
				}
				record(what, pres.Result, nil)
			}

			in.Replication = ReplicationConfig{}
			res, err := OptimizeBest(in, opts)
			record("best", res, err)
			res, err = OptimizeIncremental(in, IncrementalOptions{Options: opts, Seed: catalog.SingletonSetLayout(seed)})
			record("incremental", res, err)
			res, err = Exhaustive(in, opts)
			record("exhaustive", res, err)
			partitioned("partitioned", in)

			for _, cap := range []int{1, 2} {
				in.Replication = ReplicationConfig{Enabled: true, MaxReplicas: cap}
				tag := fmt.Sprintf("cap%d/", cap)
				res, err := OptimizeBest(in, opts)
				record(tag+"best", res, err)
				s := seedSet
				if cap == 1 {
					s = catalog.SingletonSetLayout(seed)
				}
				res, err = OptimizeIncremental(in, IncrementalOptions{Options: opts, Seed: s})
				record(tag+"incremental", res, err)
				if !noCompile {
					// The unpruned walk over the map form enumerates replicated
					// spaces too — it is a reference of
					// TestExhaustiveReplicatedPrunedMatchesPlain — but the golden pins
					// the replicated space over the compiled form only.
					res, err = Exhaustive(in, opts)
					record(tag+"exhaustive", res, err)
				}
				partitioned(tag+"partitioned", in)
			}
		}
	}

	path := filepath.Join("testdata", "search.golden")
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
				t.Fatalf("search changed at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("search changed: %d lines recorded, %d produced", len(wl), len(gl))
	}
}
