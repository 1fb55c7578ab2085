package dotprov_test

// Repository-level benchmarks: microbenchmarks of the search, the
// estimators, the memo, ingest, the executor and the TPC-C driver, most of
// which scripts/benchguard.sh gates. The paper's experiments are not
// benchmarked here: `go run ./cmd/dotbench -exp <id>` prints each one's
// rows, which EXPERIMENTS.md records, and internal/bench's shape tests
// (TestTable1Reproduction, TestTable2Reproduction, TestFigure3Shapes,
// TestFigure5And7Shapes, TestSec443Shapes, TestFigure8Shapes,
// TestFigure9Shapes, TestProvisionShapes, TestDiscreteShapes) check them.
// Run with:
//
//	go test -run '^$' -bench=. -benchmem .

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"dotprov/internal/bench"
	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/iosim"
	"dotprov/internal/online"
	"dotprov/internal/plan"
	"dotprov/internal/profiler"
	"dotprov/internal/provision"
	"dotprov/internal/search"
	"dotprov/internal/tpcc"
	"dotprov/internal/tpch"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// ---- Algorithm microbenchmarks --------------------------------------------

// synthetic builds an N-table catalog with a profile-driven, compilable
// estimator (workload.ObservedEstimator), so the optimizers benchmark both
// estimator forms: the compiled form (delta, bound, signatures) by default,
// the map form under Input.NoCompile. It also returns the profile for the
// pruning-bound and compiled-IOTime benchmarks.
func synthetic(n int) (core.Input, iosim.Profile, error) {
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	prof := iosim.NewProfile()
	for i := 0; i < n; i++ {
		name := "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		tab, err := cat.CreateTable(name, sch, []string{"id"})
		if err != nil {
			return core.Input{}, nil, err
		}
		ix, err := cat.CreateIndex(name+"_pkey", tab.ID, []string{"id"}, true)
		if err != nil {
			return core.Input{}, nil, err
		}
		cat.SetSize(tab.ID, int64(1+i)*1e9)
		cat.SetSize(ix.ID, int64(1+i)*1e8)
		prof.Add(tab.ID, device.SeqRead, float64(1000*(i+1)))
		prof.Add(ix.ID, device.RandRead, float64(100*(i+1)))
	}
	box := device.Box1()
	ps := core.NewProfileSet()
	ps.SetSingle(prof)
	// Compile the estimator once up front, as the production entry points do
	// (serve compiles per request, sweeps per sweep) — the dense time tables
	// are then shared by every Optimize/Exhaustive call on this input.
	est := workload.CompileEstimator(&workload.ObservedEstimator{Box: box, Concurrency: 1,
		PerQuery: []workload.QueryObservation{{Profile: prof}}}, cat)
	return core.Input{
		Cat: cat, Box: box,
		Est:      est,
		Profiles: ps, Concurrency: 1,
	}, prof, nil
}

// pathVariants runs a sub-benchmark over the map form (NoCompile) and the
// compiled form, reporting est-calls and evaluated as custom metrics. The
// two variants of a DOT sweep must report identical counts — the CI
// bench-regression step asserts it — because there the compiled path is a
// mechanical speedup, not a different search; BenchmarkExhaustive's
// compiled walk prunes, and is held to "no more than map" instead.
func pathVariants(b *testing.B, in core.Input, run func(core.Input) (*core.Result, error)) {
	for _, v := range []struct {
		name      string
		noCompile bool
	}{{"map", true}, {"compiled", false}} {
		b.Run(v.name, func(b *testing.B) {
			vin := in
			vin.NoCompile = v.noCompile
			b.ReportAllocs()
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = run(vin); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.EstimatorCalls), "est-calls")
			b.ReportMetric(float64(res.Evaluated), "evaluated")
		})
	}
}

// BenchmarkDOTOptimize measures DOT planning cost at the paper's catalog
// sizes (TPC-H: 8 groups, TPC-C: 9+ groups) and beyond, on both evaluation
// estimator forms: the compiled variant scores each candidate move by
// O(moves) delta re-estimation; the map variant materializes the candidate's
// map form and estimates it in full.
func BenchmarkDOTOptimize(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		in, _, err := synthetic(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			pathVariants(b, in, func(in core.Input) (*core.Result, error) {
				return core.Optimize(in, core.Options{RelativeSLA: 0.5})
			})
		})
	}
}

// BenchmarkExhaustive measures the M^N baseline the paper contrasts DOT
// against (§4.4.3: DOT in seconds vs ES in hundreds of seconds) over both
// estimator forms. The map form offers the branch-and-bound walk no bound
// and no dominance, so its variant visits every layout and estimates each
// in full through its map form; the compiled variant prunes, so it
// evaluates fewer candidates by design — benchguard holds it to "no more
// than the map variant", not to count equality.
func BenchmarkExhaustive(b *testing.B) {
	for _, n := range []int{4, 6} { // 3^8 and 3^12 layouts
		in, _, err := synthetic(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			pathVariants(b, in, func(in core.Input) (*core.Result, error) {
				return core.Exhaustive(in, core.Options{RelativeSLA: 0.5})
			})
		})
	}
}

// BenchmarkDSSEstimate drives the plan-aware TPC-H estimator through the
// two searches that use it — DOT on the full 16-object catalog, and the
// §4.4.3 exhaustive search over the 8-object subset (3^8 = 6,561 layouts) —
// on both evaluation paths, with a fresh estimator per search. Beside the
// search's est-calls and evaluated (which benchguard holds identical across
// map/compiled) it reports the estimator's own counts: per-query cost
// lookups, and how many of them had to plan. A query is planned once per
// placement of the objects it can read, so plans stay a small share of
// lookups; the counts repeat exactly from run to run, which is what makes
// them a gate (benchguard check 12) where a time would flake.
func BenchmarkDSSEstimate(b *testing.B) {
	cfg := tpch.Config{ScaleFactor: 0.001, Seed: 1}
	for _, bc := range []struct {
		name   string
		subset bool
		run    func(core.Input) (*core.Result, error)
	}{
		{"dot", false, func(in core.Input) (*core.Result, error) {
			return core.Optimize(in, core.Options{RelativeSLA: 0.5})
		}},
		{"es", true, func(in core.Input) (*core.Result, error) {
			return core.Exhaustive(in, core.Options{RelativeSLA: 0.5})
		}},
	} {
		box := device.Box1()
		db := engine.New(box, engine.DefaultPoolPages)
		build, mk := tpch.Build, tpch.OriginalWorkload
		if bc.subset {
			build, mk = tpch.BuildSubset, tpch.SubsetWorkload
		}
		if err := build(db, cfg); err != nil {
			b.Fatal(err)
		}
		if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, box.MostExpensive().Class)); err != nil {
			b.Fatal(err)
		}
		w := mk(cfg, 2)
		ps, err := profiler.ProfileDSSEstimates(db, w)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name      string
			noCompile bool
		}{{"map", true}, {"compiled", false}} {
			b.Run(bc.name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				var res *core.Result
				var lookups, plans int64
				for i := 0; i < b.N; i++ {
					est := w.Estimator(db)
					in := core.Input{Cat: db.Cat, Box: box, Est: est, Profiles: ps, Concurrency: 1, NoCompile: v.noCompile}
					if res, err = bc.run(in); err != nil {
						b.Fatal(err)
					}
					lookups, plans = est.(interface{ PlanCounts() (int64, int64) }).PlanCounts()
				}
				b.ReportMetric(float64(res.EstimatorCalls), "est-calls")
				b.ReportMetric(float64(res.Evaluated), "evaluated")
				b.ReportMetric(float64(lookups), "lookups")
				b.ReportMetric(float64(plans), "plans")
			})
		}
	}
}

func sizeName(n int) string {
	return "tables-" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// ---- Search-engine benchmarks ---------------------------------------------
//
// The shared layout-search engine (internal/search) memoizes candidate
// evaluations by canonical layout key, fans them out over a worker pool,
// and prunes exhaustive subtrees under an admissible TOC floor. These
// benchmarks quantify each lever; results are byte-identical across all
// variants.

// BenchmarkExhaustiveWorkers scales the M^N enumeration across the worker
// pool (sequential vs all cores). It is the branch-and-bound walk, so the
// scaling measured is the shared frontier's, not a fixed odometer split's.
func BenchmarkExhaustiveWorkers(b *testing.B) {
	widths := []int{1, 2, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, w := range widths {
		if seen[w] {
			continue
		}
		seen[w] = true
		in, _, err := synthetic(6) // 3^12 layouts
		if err != nil {
			b.Fatal(err)
		}
		in.Workers = w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Exhaustive(in, core.Options{RelativeSLA: 0.5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExhaustiveBnB measures the branch-and-bound compact DFS —
// tight per-unit suffix bounds, dominance collapsing, and (bnb-par) the
// parallel frontier — against the unpruned enumeration under NoCompile of
// the same 3^12 space. benchguard asserts bnb beats plain
// strictly; the evaluated metric shows why (the bound discards most of the
// space before evaluation).
func BenchmarkExhaustiveBnB(b *testing.B) {
	base, _, err := synthetic(6)
	if err != nil {
		b.Fatal(err)
	}
	plain := base
	plain.NoCompile = true
	bnb := base
	bnb.Workers = 1
	bnbPar := base
	bnbPar.Workers = runtime.NumCPU()
	for _, c := range []struct {
		name string
		in   core.Input
	}{{"plain", plain}, {"bnb", bnb}, {"bnb-par", bnbPar}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				if res, err = core.Exhaustive(c.in, core.Options{RelativeSLA: 0.5}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Evaluated), "evaluated")
			b.ReportMetric(float64(res.Search.BoundPruned), "pruned")
		})
	}
}

// ---- Compiled-path microbenchmarks ----------------------------------------
//
// The three levers of the compiled cost model, measured in isolation: the
// dense per-(object, class-set) time table vs the map-walking IOTime, the
// compact memo key vs the sorted 5-bytes-per-object map key, and (above,
// BenchmarkExhaustive/BenchmarkDOTOptimize) delta vs full evaluation.

// BenchmarkIOTimeCompiledVsMap: one full-layout cost estimate, 64 objects.
func BenchmarkIOTimeCompiledVsMap(b *testing.B) {
	in, prof, err := synthetic(32) // 64 objects (table + pkey each)
	if err != nil {
		b.Fatal(err)
	}
	l := catalog.NewUniformLayout(in.Cat, device.HSSD)
	cl := catalog.CompactUniform(in.Cat, device.Singleton(device.HSSD))
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prof.IOTime(l, in.Box, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	cp := iosim.CompileProfile(prof, in.Box, 1, in.Cat.NumObjects(), iosim.SingletonAlphabet(in.Box))
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cp.IOTime(cl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled-delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cp.DeltaIOTime(1, device.Singleton(device.HSSD), device.Singleton(device.LSSD)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// candidateEngine builds, over a linear-cost input whose estimator compiles,
// the search engine core builds for it, so the benchmarks below can drive
// the engine's memo and cursor directly. memoLimit is
// search.Config.MemoLimit (0: the default).
func candidateEngine(in core.Input, memoLimit int) (*search.Engine, error) {
	est := workload.CompileEstimator(in.Est, in.Cat)
	de, ok := est.(workload.DeltaEstimator)
	if !ok {
		return nil, fmt.Errorf("estimator %T has no delta form", est)
	}
	return search.New(search.Config{
		Cat:       in.Cat,
		Est:       de,
		MemoLimit: memoLimit,
		Price: func(m workload.Metrics, sp catalog.ClassSpace) (float64, bool, error) {
			perHour, fits, err := sp.PriceLinear(in.Box)
			return perHour * m.Elapsed.Hours(), fits, err
		},
	})
}

// BenchmarkMemoKey: what the compact memo pays to key a probe, at 64 and
// 512 slots. "full" hashes the whole layout (Engine.EvaluateCompact: seeds
// and cursor construction); "update" derives the hash from the running one
// with two slot mixes (a Cursor's Try, reverted). Every probe is a memo hit,
// so neither variant estimates or prices — what is left beside the hash is
// the lock, the chain lookup and the key comparison, the same for both.
func BenchmarkMemoKey(b *testing.B) {
	lssd := device.Singleton(device.LSSD)
	for _, tables := range []int{32, 256} { // table + pkey each
		in, _, err := synthetic(tables)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := candidateEngine(in, 0)
		if err != nil {
			b.Fatal(err)
		}
		base := catalog.CompactUniform(in.Cat, device.Singleton(device.HSSD))
		ev, err := eng.EvaluateCompact(base)
		if err != nil {
			b.Fatal(err)
		}
		moved := base.Clone()
		moved.Set(1, lssd)
		if _, err := eng.EvaluateCompact(moved); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("full/slots-%d", base.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.EvaluateCompact(moved); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("update/slots-%d", base.Len()), func(b *testing.B) {
			cur := eng.NewCursor(ev)
			move := []workload.ObjectMove{{Obj: 1, From: device.Singleton(device.HSSD), To: lssd}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cur.Try(move); err != nil {
					b.Fatal(err)
				}
				cur.Revert(move)
			}
		})
		if calls := eng.Stats().EstimatorCalls; calls != 2 {
			b.Fatalf("probes re-estimated: %d estimator calls, want 2", calls)
		}
	}
}

// One BenchmarkSweepCandidate operation is sweepCandidateRounds batches of
// sweepCandidateBatch candidates, each batch timed on its own: enough that a
// -benchtime 1x smoke run still has several batches to take the best of.
const (
	sweepCandidateBatch  = 256
	sweepCandidateRounds = 32
)

// BenchmarkSweepCandidate: what one sweep candidate costs — a cursor Try of
// a one-unit move off L0, then Revert — when the memo does not know it, on
// the skew fixture partitioned into 128 and into 2048 placement units.
// B/candidate is the mean over the run; ns/candidate is the fastest batch's,
// because a candidate's key copy is garbage at once and a collection landing
// in a batch costs more than the batch. The engine's memo is full from the
// start (MemoLimit 1, taken by L0), so every candidate is a miss that is
// hashed, probed, copied, estimated and priced but not retained, and the
// heap stays flat however long the run. Hash, delta estimate, totals and
// price are O(moves), so 16x the units must cost far less than 16x — what
// still grows with the catalog is the copy of the candidate's key.
// benchguard gates the ratio.
func BenchmarkSweepCandidate(b *testing.B) {
	for _, extents := range []int{31, 511} { // 4 tables + 4 indexes -> 128 and 2048 units
		fx, err := workload.Skewed(workload.SkewedConfig{Tables: 4, Extents: extents})
		if err != nil {
			b.Fatal(err)
		}
		pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{
			MaxUnitsPerObject: extents, MergeRatio: 1, MinUnitBytes: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		box := device.Box2()
		in, err := core.Input{Cat: fx.Cat, Box: box, Est: fx.Estimator(box, 1)}.Partitioned(pt)
		if err != nil {
			b.Fatal(err)
		}
		units := in.Cat.NumObjects()
		eng, err := candidateEngine(in, 1)
		if err != nil {
			b.Fatal(err)
		}
		l0 := device.Singleton(device.HSSD)
		ev, err := eng.EvaluateCompact(catalog.CompactUniform(in.Cat, l0))
		if err != nil {
			b.Fatal(err)
		}
		targets := []device.ClassSet{device.Singleton(device.LSSDRAID0), device.Singleton(device.HDD)}
		b.Run(fmt.Sprintf("units-%d", units), func(b *testing.B) {
			cur := eng.NewCursor(ev)
			move := make([]workload.ObjectMove, 1)
			batch := func() time.Duration {
				start := time.Now()
				for j := 0; j < sweepCandidateBatch; j++ {
					// Spread the batch over the whole catalog; the second half
					// revisits the units with the other target.
					u := (j % 128) * (units / 128)
					move[0] = workload.ObjectMove{Obj: catalog.ObjectID(u + 1), From: l0, To: targets[j/128%2]}
					if _, err := cur.Try(move); err != nil {
						b.Fatal(err)
					}
					cur.Revert(move)
				}
				return time.Since(start)
			}
			for i := 0; i < sweepCandidateRounds; i++ {
				batch() // warm the allocator's size class and the caches
			}
			calls := eng.Stats().EstimatorCalls
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			allocated := ms.TotalAlloc
			best := time.Duration(math.MaxInt64)
			b.ResetTimer()
			for i := 0; i < b.N*sweepCandidateRounds; i++ {
				best = min(best, batch())
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			candidates := b.N * sweepCandidateRounds * sweepCandidateBatch
			if got := eng.Stats().EstimatorCalls - calls; got != candidates {
				b.Fatalf("%d of %d candidates missed the memo", got, candidates)
			}
			b.ReportMetric(float64(best.Nanoseconds())/sweepCandidateBatch, "ns/candidate")
			b.ReportMetric(float64(ms.TotalAlloc-allocated)/float64(candidates), "B/candidate")
			b.ReportMetric(float64(units), "units")
		})
	}
}

// BenchmarkSweepAllocs: what one provisioning sweep allocates. It is the
// shape of the end-to-end provision_sweep request without the HTTP around
// it: synthetic(16) — 32 objects — swept over the 3-class grid (HDD 0-2,
// L-SSD 0-2, H-SSD 0-1 units) at alphas {0, 0.5}, 34 candidate searches on
// two workers. Each candidate's engine draws its memo store from the pool
// an earlier candidate released it into, and the 34 candidates search
// seven scored move lists, one per class list. The first sweep in a process
// also fills the pool, so -benchtime 1x reads about twice the steady B/op
// that 20x reports. benchguard gates the 1x figure.
func BenchmarkSweepAllocs(b *testing.B) {
	in, prof, err := synthetic(16)
	if err != nil {
		b.Fatal(err)
	}
	grid := provision.Grid{
		Devices: []provision.DeviceOption{
			{Class: device.HDD, Counts: []int{0, 1, 2}},
			{Class: device.LSSD, Counts: []int{0, 1, 2}},
			{Class: device.HSSD, Counts: []int{0, 1}},
		},
		Alphas: []float64{0, 0.5},
	}
	in.Est = &workload.ObservedEstimator{Box: grid.Universe(), Concurrency: 1,
		PerQuery: []workload.QueryObservation{{Profile: prof}}}
	in.Workers = 2
	b.ReportAllocs()
	var ch *provision.Choice
	for i := 0; i < b.N; i++ {
		if ch, err = provision.SweepConfigurations(in, grid, core.Options{RelativeSLA: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ch.Results)), "candidates")
}

// BenchmarkBudgetAdmit: what admission to the shared search.Budget costs
// an estimator call — one Enter/Exit pair, with two goroutines per CPU
// contending for a width-2 budget, as two in-flight provisioning requests'
// candidate searches do on a 2-CPU server. A free slot is one
// compare-and-swap; a full budget parks the caller until an Exit wakes
// it. benchguard gate 16 holds it at 0 allocs/op: a caller that parks
// allocates nothing either. Run it for at least a few thousand iterations:
// RunParallel's own goroutines are counted in the allocations, and one
// iteration would divide them by one.
func BenchmarkBudgetAdmit(b *testing.B) {
	bud := search.NewBudget(2)
	b.ReportAllocs()
	b.SetParallelism(2)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bud.Enter()
			bud.Exit()
		}
	})
	if bud.InUse() != 0 || bud.HighWater() > 2 {
		b.Fatalf("budget left %d slots in use, high water %d", bud.InUse(), bud.HighWater())
	}
}

// syntheticDrifted returns the scan-shifted sibling of synthetic(n): the
// same catalog, but the workload profile has turned analytical — every
// table is now read sequentially at 20x the transactional volume while the
// index traffic fades. It is the "drifted window" the online advisor
// re-optimizes for.
func syntheticDrifted(in core.Input) core.Input {
	prof := iosim.NewProfile()
	i := 0
	for _, o := range in.Cat.Objects() {
		switch o.Kind {
		case catalog.KindTable:
			prof.Add(o.ID, device.SeqRead, float64(20000*(i+1)))
			prof.Add(o.ID, device.RandRead, float64(100*(i+1)))
			i++
		case catalog.KindIndex:
			prof.Add(o.ID, device.RandRead, float64(50*i))
		}
	}
	ps := core.NewProfileSet()
	ps.SetSingle(prof)
	out := in
	out.Profiles = ps
	out.Est = workload.CompileEstimator(&workload.ObservedEstimator{Box: in.Box, Concurrency: 1,
		PerQuery: []workload.QueryObservation{{Profile: prof}}}, in.Cat)
	return out
}

// reAdviseFixture builds the online re-advise scenario: the deployed
// layout is the cold optimum of the transactional profile; the input is
// the drifted analytical profile that the incremental search re-optimizes
// against, seeded with that layout.
func reAdviseFixture(b *testing.B, n int) (core.Input, catalog.SetLayout) {
	b.Helper()
	base, _, err := synthetic(n)
	if err != nil {
		b.Fatal(err)
	}
	// The larger catalogs outgrow the H-SSD, so L0 violates capacity and
	// tight SLAs are infeasible; the relaxing loop finds the SLA level the
	// instance supports, exactly as the §4.5.3 harness does.
	cold, _, err := core.OptimizeRelaxing(base, core.Options{RelativeSLA: 0.5}, 1.0/1024)
	if err != nil {
		b.Fatal(err)
	}
	if !cold.Feasible {
		b.Fatal("baseline advise infeasible")
	}
	return syntheticDrifted(base), cold.SetLayout
}

// BenchmarkReAdvise measures the online re-advise under a drifted profile:
// the search is seeded with the deployed layout (core.OptimizeIncremental,
// the engine's compiled/delta path on the compiled variant) and walks one
// guarded move sweep. Compare with BenchmarkReAdviseCold, the full
// from-scratch re-search of the same drifted profile — benchguard asserts
// the incremental run evaluates strictly fewer candidates.
func BenchmarkReAdvise(b *testing.B) {
	for _, n := range []int{8, 16} {
		in, seed := reAdviseFixture(b, n)
		b.Run(sizeName(n), func(b *testing.B) {
			pathVariants(b, in, func(in core.Input) (*core.Result, error) {
				return core.OptimizeIncremental(in, core.IncrementalOptions{
					Options: core.Options{RelativeSLA: 0.25},
					Seed:    seed,
				})
			})
		})
	}
}

// BenchmarkReAdviseCold is the yardstick for BenchmarkReAdvise: a cold
// OptimizeBest of the same drifted profile, ignoring the deployed layout.
func BenchmarkReAdviseCold(b *testing.B) {
	for _, n := range []int{8, 16} {
		in, _ := reAdviseFixture(b, n)
		b.Run(sizeName(n), func(b *testing.B) {
			pathVariants(b, in, func(in core.Input) (*core.Result, error) {
				return core.OptimizeBest(in, core.Options{RelativeSLA: 0.25})
			})
		})
	}
}

// ---- Partition-granularity benchmarks -------------------------------------
//
// The Zipf hot/cold fixture (workload.Skewed via bench.SkewFixtureInput)
// advised at object vs partition granularity on the same box and SLA. Both
// report the layout storage cost as a custom metric; benchguard asserts
// the partitioned cost stays at or below the object-granular cost at equal
// SLA, and that the unit path's map and compiled variants report identical
// est-calls/evaluated (the compact/delta machinery is granularity-blind).

// skewVariants runs the fixture's optimization on the map and compiled
// paths, reporting search counts plus the achieved storage cost.
func skewVariants(b *testing.B, run func(core.Input, *workload.SkewedFixture) (*core.Result, float64, error)) {
	in, fx, err := bench.SkewFixtureInput(device.Box2())
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name      string
		noCompile bool
	}{{"map", true}, {"compiled", false}} {
		b.Run(v.name, func(b *testing.B) {
			vin := in
			vin.NoCompile = v.noCompile
			b.ReportAllocs()
			var res *core.Result
			var storage float64
			for i := 0; i < b.N; i++ {
				if res, storage, err = run(vin, fx); err != nil {
					b.Fatal(err)
				}
				if !res.Feasible {
					// An infeasible result would price a nil layout as 0
					// cents and let benchguard's skew gate pass vacuously;
					// fail with the real cause instead.
					b.Fatalf("skew fixture infeasible at SLA %g", bench.SkewSLA)
				}
			}
			b.ReportMetric(float64(res.EstimatorCalls), "est-calls")
			b.ReportMetric(float64(res.Evaluated), "evaluated")
			b.ReportMetric(storage*1e6, "microcents-storage")
		})
	}
}

// BenchmarkObjectGranularDOT is the object-granular yardstick on the skew
// fixture.
func BenchmarkObjectGranularDOT(b *testing.B) {
	skewVariants(b, func(in core.Input, _ *workload.SkewedFixture) (*core.Result, float64, error) {
		res, err := core.OptimizeBest(in, core.Options{RelativeSLA: bench.SkewSLA})
		if err != nil {
			return nil, 0, err
		}
		cost, err := res.Layout.CostCentsPerHour(in.Cat, in.Box)
		return res, cost, err
	})
}

// BenchmarkPartitionedDOT advises the same fixture at partition
// granularity: the catalog splits into heat-based units and DOT places
// them independently.
func BenchmarkPartitionedDOT(b *testing.B) {
	skewVariants(b, func(in core.Input, fx *workload.SkewedFixture) (*core.Result, float64, error) {
		pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
		if err != nil {
			return nil, 0, err
		}
		uin, err := in.Partitioned(pt)
		if err != nil {
			return nil, 0, err
		}
		res, err := core.OptimizeBest(uin, core.Options{RelativeSLA: bench.SkewSLA})
		if err != nil {
			return nil, 0, err
		}
		cost, err := res.Layout.CostCentsPerHour(pt.UnitCatalog(), in.Box)
		return res, cost, err
	})
}

// BenchmarkPartitionedDOT500 is the scale point of the partition-granular
// path: a 16-table Zipf catalog split into ~500 placement units (32
// extents per object, merging disabled), advised end to end. benchguard
// gates the compiled variant's wall time — a full partition-granular
// advise at this unit count must stay under 100ms — and the map/compiled
// count parity of gate 1 covers it like every other pair.
func BenchmarkPartitionedDOT500(b *testing.B) {
	fx, err := workload.Skewed(workload.SkewedConfig{Tables: 16, Extents: 32})
	if err != nil {
		b.Fatal(err)
	}
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{
		MaxUnitsPerObject: 32, MergeRatio: 1, MinUnitBytes: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if pt.NumUnits() < 500 {
		b.Fatalf("fixture yields %d units, want >= 500", pt.NumUnits())
	}
	box := device.Box2()
	ps := core.NewProfileSet()
	ps.SetSingle(fx.Profile)
	in := core.Input{Cat: fx.Cat, Box: box, Est: fx.Estimator(box, 1), Profiles: ps, Concurrency: 1}
	for _, v := range []struct {
		name      string
		noCompile bool
	}{{"map", true}, {"compiled", false}} {
		b.Run(v.name, func(b *testing.B) {
			vin := in
			vin.NoCompile = v.noCompile
			b.ReportAllocs()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				uin, err := vin.Partitioned(pt)
				if err != nil {
					b.Fatal(err)
				}
				if res, err = core.OptimizeBest(uin, core.Options{RelativeSLA: bench.SkewSLA}); err != nil {
					b.Fatal(err)
				}
				if !res.Feasible {
					b.Fatalf("500-unit skew fixture infeasible at SLA %g", bench.SkewSLA)
				}
			}
			b.ReportMetric(float64(res.EstimatorCalls), "est-calls")
			b.ReportMetric(float64(res.Evaluated), "evaluated")
			b.ReportMetric(float64(pt.NumUnits()), "units")
		})
	}
}

// BenchmarkCollectorCharge measures the observation path the engine runs
// on every page miss and row write with a tap installed:
// Accountant.ChargePageIO → online.Collector, one goroutine, every charge
// taking the collector mutex. The charge pattern mirrors the buffer pool's
// miss path — short sequential page runs per object, cycling all objects
// and I/O types — and one full cycle of it runs before the timer starts,
// so every object's profile vector and every extent bucket already exist
// and even CI's one-iteration run reads the steady state. benchguard gate 6
// holds it at 0 allocs/op.
func BenchmarkCollectorCharge(b *testing.B) {
	const objects, cycle = 16, 4096
	layout := make(catalog.Layout, objects)
	for id := catalog.ObjectID(1); id <= objects; id++ {
		layout[id] = device.HSSD
	}
	acct, err := iosim.NewAccountant(device.Box1(), layout, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	acct.SetTap(online.NewCollector(8))
	charge := func(i int64) {
		id := catalog.ObjectID(1 + (i>>3)&(objects-1))
		acct.ChargePageIO(id, device.IOType((i>>7)&3), i&(cycle-1), 1)
	}
	for i := int64(0); i < cycle; i++ {
		charge(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		charge(int64(i))
	}
}

// ---- Replicated-search benchmarks -----------------------------------------

// replicatedSynthetic is the synthetic fixture with replication on: Box 1's
// three classes capped at two copies per unit, a six-digit class-set
// alphabet (three singletons plus three pairs).
func replicatedSynthetic(tables int) (core.Input, error) {
	in, _, err := synthetic(tables)
	if err != nil {
		return core.Input{}, err
	}
	in.Replication = core.ReplicationConfig{Enabled: true, MaxReplicas: 2}
	return in, nil
}

// replicatedSymmetric is the 3-class x 12-unit replicated point: n tables
// of EQUAL size and heat plus their equal pkey indexes. Equal units carry
// identical dominance signatures, so the canonical space collapses from
// 6^12 ≈ 2.2e9 raw set-digit layouts to two multisets — C(6+5,5)^2 ≈ 213k
// — the collapse that makes the wide exhaustive walk legal at all (the map
// walk, which visits the raw space, is refused by MaxExhaustiveLayouts
// there).
func replicatedSymmetric(n int) (core.Input, error) {
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	prof := iosim.NewProfile()
	for i := 0; i < n; i++ {
		name := "s" + string(rune('a'+i%26))
		tab, err := cat.CreateTable(name, sch, []string{"id"})
		if err != nil {
			return core.Input{}, err
		}
		ix, err := cat.CreateIndex(name+"_pkey", tab.ID, []string{"id"}, true)
		if err != nil {
			return core.Input{}, err
		}
		cat.SetSize(tab.ID, 4e9)
		cat.SetSize(ix.ID, 4e8)
		prof.Add(tab.ID, device.SeqRead, 4000)
		prof.Add(tab.ID, device.RandRead, 400)
		prof.Add(ix.ID, device.RandRead, 400)
	}
	box := device.Box1()
	ps := core.NewProfileSet()
	ps.SetSingle(prof)
	est := workload.CompileEstimator(&workload.ObservedEstimator{Box: box, Concurrency: 1,
		PerQuery: []workload.QueryObservation{{Profile: prof}}}, cat)
	return core.Input{
		Cat: cat, Box: box, Est: est, Profiles: ps, Concurrency: 1,
		Replication: core.ReplicationConfig{Enabled: true, MaxReplicas: 2},
	}, nil
}

// BenchmarkReplicatedBnB measures the replicated exhaustive walk over
// class-set digits. plain/pruned/parallel share one space — 6 units over 6
// set digits, 6^6 ≈ 47k layouts, small enough that a full map-form
// estimate and a memo entry per layout fit a -benchtime 1x smoke — so
// their times compare like for like: plain is the unpruned enumeration
// under NoCompile (one worker), pruned is the walk over the compiled form
// with its suffix bounds and dominance collapse, parallel adds the shared
// frontier. wide is
// the 3-class x 12-unit point: 6^12 ≈ 2.2e9 nominal layouts, where a plain
// enumeration is refused by MaxExhaustiveLayouts outright and only the
// dominance-collapsed bounded walk covers the space (milliseconds; the
// evaluated and pruned metrics show the asymmetry). benchguard gates
// pruned strictly below plain.
func BenchmarkReplicatedBnB(b *testing.B) {
	shared, err := replicatedSynthetic(3) // 6 units
	if err != nil {
		b.Fatal(err)
	}
	plain := shared
	plain.NoCompile = true
	plain.Workers = 1
	pruned := shared
	pruned.Workers = 1
	par := shared
	par.Workers = runtime.NumCPU()
	wide, err := replicatedSymmetric(6) // 12 units
	if err != nil {
		b.Fatal(err)
	}
	wide.Workers = 1
	for _, c := range []struct {
		name string
		in   core.Input
	}{{"plain", plain}, {"pruned", pruned}, {"parallel", par}, {"wide", wide}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				if res, err = core.Exhaustive(c.in, core.Options{RelativeSLA: 0.5}); err != nil {
					b.Fatal(err)
				}
				if !res.Feasible {
					b.Fatal("replicated synthetic fixture infeasible at SLA 0.5")
				}
			}
			b.ReportMetric(float64(res.Evaluated), "evaluated")
			b.ReportMetric(float64(res.Search.BoundPruned), "pruned")
		})
	}
}

// BenchmarkPartitionedReplicatedDOT is the replicated scale point: the
// 500-unit Zipf partitioning of BenchmarkPartitionedDOT500 advised with
// replication enabled — every unit choosing a class set, reads routed to
// the best member per access pattern, writes charged to every member. Both
// evaluation paths run so the map/compiled count-parity gate covers the
// replicated sweep too; benchguard additionally gates the compiled
// variant's wall time under 250ms per advise.
func BenchmarkPartitionedReplicatedDOT(b *testing.B) {
	fx, err := workload.Skewed(workload.SkewedConfig{Tables: 16, Extents: 32})
	if err != nil {
		b.Fatal(err)
	}
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{
		MaxUnitsPerObject: 32, MergeRatio: 1, MinUnitBytes: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if pt.NumUnits() < 500 {
		b.Fatalf("fixture yields %d units, want >= 500", pt.NumUnits())
	}
	box := device.Box2()
	ps := core.NewProfileSet()
	ps.SetSingle(fx.Profile)
	in := core.Input{
		Cat: fx.Cat, Box: box, Est: fx.Estimator(box, 1), Profiles: ps, Concurrency: 1,
		Replication: core.ReplicationConfig{Enabled: true, MaxReplicas: 2},
	}
	for _, v := range []struct {
		name      string
		noCompile bool
	}{{"map", true}, {"compiled", false}} {
		b.Run(v.name, func(b *testing.B) {
			vin := in
			vin.NoCompile = v.noCompile
			b.ReportAllocs()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				uin, err := vin.Partitioned(pt)
				if err != nil {
					b.Fatal(err)
				}
				if res, err = core.OptimizeBest(uin, core.Options{RelativeSLA: bench.SkewSLA}); err != nil {
					b.Fatal(err)
				}
				if !res.Feasible {
					b.Fatalf("500-unit replicated skew fixture infeasible at SLA %g", bench.SkewSLA)
				}
			}
			b.ReportMetric(float64(res.EstimatorCalls), "est-calls")
			b.ReportMetric(float64(res.Evaluated), "evaluated")
			b.ReportMetric(float64(pt.NumUnits()), "units")
		})
	}
}

// ---- Executor benchmarks ---------------------------------------------------

// BenchmarkExecutorTPCH executes single TPC-H plans over a loaded database —
// the work DOT's validation phase repeats for every query of every test run
// — and reports, beside -benchmem's B/op, the bytes allocated per row of the
// tables the query names (B/row). Q1 is scan->aggregate over lineitem, Q3 and
// Q5 add hash joins below the aggregate, inlj is the modified Q9 on an
// all-H-SSD layout, where the optimizer switches to indexed nested-loop
// joins. The executor lends its tuples, so B/op must not scale with the
// rows scanned: benchguard gate 10 holds Q1's B/op under a fixed ceiling.
// Each query runs once untimed first. That run decodes every page its scans
// read into the database's decoded copy, which later scans read instead of
// the records, and grows the recycled storage of its hash joins' build
// sides; every iteration then measures the steady state the later queries
// of a validation run see, even at -benchtime 1x, and gate 14 holds Q5's
// B/op under a ceiling that building in fresh storage exceeds tenfold.
func BenchmarkExecutorTPCH(b *testing.B) {
	cfg := tpch.Config{ScaleFactor: 0.01, Seed: 1}
	db := engine.New(device.Box2(), engine.DefaultPoolPages)
	if err := tpch.Build(db, cfg); err != nil {
		b.Fatal(err)
	}
	original, modified := tpch.OriginalWorkload(cfg, 2).Queries, tpch.ModifiedWorkload(cfg, 2).Queries
	for _, c := range []struct {
		name  string
		q     *plan.Query
		class device.Class
		inlj  bool
	}{
		{"Q1", original[0], device.HDD, false},
		{"Q3", original[2], device.HDD, false},
		{"Q5", original[4], device.HDD, false},
		{"inlj", modified[2], device.HSSD, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, c.class)); err != nil {
				b.Fatal(err)
			}
			pl, err := db.Plan(c.q)
			if err != nil {
				b.Fatal(err)
			}
			if algos := pl.JoinAlgos(); c.inlj != (len(algos) > 0 && algos[0] == plan.IndexNLJoin) {
				b.Fatalf("%s plans %v", c.q.Name, algos)
			}
			rows := 0
			for _, t := range c.q.Tables {
				tab, err := db.Cat.TableByName(t)
				if err != nil {
					b.Fatal(err)
				}
				rows += int(db.Heap(tab.ID).NumRows())
			}
			sess, err := db.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.RunPlan(pl); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.RunPlan(pl); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(rows), "B/row")
		})
	}
}

// BenchmarkTPCCRun measures one TPC-C driver run — DefaultConfig on Box 2's
// most expensive class, eight workers, 500 ms of virtual time each, the
// offline pipeline's test and validation run — after one untimed run, so
// every iteration sees the DML path's scratch already grown. Lookups
// borrow their results from the session, writes encode into the
// database's scratch, and transactions edit rows in their worker's one
// scratch tuple, so what a run allocates is what the database keeps: page
// bytes, index keys, and the nodes index splits add, each allocated once
// at its full capacity. benchguard gate 15 holds its B/op under a fixed
// ceiling.
func BenchmarkTPCCRun(b *testing.B) {
	box := device.Box2()
	db := engine.New(box, engine.DefaultPoolPages)
	cfg := tpcc.DefaultConfig()
	if err := tpcc.Build(db, cfg); err != nil {
		b.Fatal(err)
	}
	db.ResizePool(db.TotalPages() / 8)
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, box.MostExpensive().Class)); err != nil {
		b.Fatal(err)
	}
	driver := &tpcc.Driver{Cfg: cfg, Workers: 8, Period: 500 * time.Millisecond, Seed: 1}
	if _, err := driver.Run(db); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver.Run(db); err != nil {
			b.Fatal(err)
		}
	}
}
