// Command dotadvisor runs the DOT layout advisor end to end on a built-in
// workload: it loads a scaled database, profiles the workload, optimizes
// the layout for the requested relative SLA, validates the recommendation
// with a test run, and prints the layout with its estimated economics.
//
// Usage:
//
//	dotadvisor -workload tpch -box 1 -sla 0.5
//	dotadvisor -workload tpch-mod -box 2 -sla 0.25 -sf 0.01
//	dotadvisor -workload tpcc -box 2 -sla 0.125 -workers 16
//	dotadvisor -workload tpcc -granularity partition -sla 0.25
//
// -search-workers controls the layout-search engine's evaluation fan-out
// (default: all CPUs); results are identical at any width.
// -exhaustive replaces the greedy DOT sweeps with the branch-and-bound
// enumeration: the provably optimal layout, at enumeration cost.
// -search-stats prints the enumeration's work profile after the layout:
// candidates evaluated, subtrees the cost floor pruned, symmetric-unit
// collapse, and how tight the root bound was against the winning TOC.
// -granularity partition (tpcc only) splits objects into heat-based
// page-range units from the test run's live extent statistics and places
// the units independently, so a hot head can stay on fast storage while
// its cold tail ships to a cheap class.
// -replication (tpcc only, object granularity) searches per-object class
// SETS instead of single classes: an object may keep copies on several
// storage classes, each read pattern is priced at its best replica and
// every write lands on all copies (-max-replicas caps copies per object).
// Replication pays on boxes whose read-latency order is not total — try
// -box 3, the striped-HDD HTAP box whose scans outrun the H-SSD.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/online"
	"dotprov/internal/profiler"
	"dotprov/internal/sql"
	"dotprov/internal/tpcc"
	"dotprov/internal/tpch"
	"dotprov/internal/workload"
)

// Search-mode flags, read by every advise path: -exhaustive swaps the
// greedy sweeps for the branch-and-bound enumeration, -search-stats prints
// the search's work profile with the recommendation.
var (
	exhaustiveFlag  = flag.Bool("exhaustive", false, "run the exhaustive branch-and-bound enumeration instead of the greedy DOT sweeps (provably optimal, enumeration cost)")
	searchStatsFlag = flag.Bool("search-stats", false, "print search statistics: candidates evaluated, bound-pruned subtrees, dominance collapse, bound tightness")
	replicationFlag = flag.Bool("replication", false, "search replica SETS instead of single classes (tpcc, object granularity): reads route to the best copy per pattern, writes land on every copy")
	maxReplicasFlag = flag.Int("max-replicas", 2, "copies per object cap under -replication; <1 means one copy per storage class")
)

func main() {
	var (
		wl        = flag.String("workload", "tpch", "workload: tpch, tpch-mod, tpcc or sql")
		boxNo     = flag.Int("box", 1, "box configuration: 1 (HDD RAID 0 + L-SSD + H-SSD) or 2 (HDD + L-SSD RAID 0 + H-SSD)")
		sla       = flag.Float64("sla", 0.5, "relative SLA in (0, 1]")
		sf        = flag.Float64("sf", 0.004, "TPC-H scale factor")
		workers   = flag.Int("workers", 8, "TPC-C concurrent workers")
		searchW   = flag.Int("search-workers", runtime.NumCPU(), "layout-search evaluation workers (results are identical at any width)")
		seed      = flag.Int64("seed", 42, "generation seed")
		schemaSQL = flag.String("schema", "", "sql workload: path to a script with CREATE TABLE/INDEX and INSERT statements")
		queries   = flag.String("queries", "", "sql workload: path to a script of SELECT statements")
		gran      = flag.String("granularity", "object", "placement granularity: object, or partition (tpcc only: per-unit placement from the test run's extent heat)")
	)
	flag.Parse()
	if err := run(*wl, *boxNo, *sla, *sf, *workers, *searchW, *seed, *schemaSQL, *queries, *gran); err != nil {
		fmt.Fprintf(os.Stderr, "dotadvisor: %v\n", err)
		os.Exit(1)
	}
}

func run(wl string, boxNo int, sla, sf float64, workers, searchWorkers int, seed int64, schemaSQL, queries, granularity string) error {
	var box *device.Box
	switch boxNo {
	case 1:
		box = device.Box1()
	case 2:
		box = device.Box2()
	case 3:
		box = device.BoxHTAP()
	default:
		return fmt.Errorf("unknown box %d (want 1, 2, or 3 for the striped-HDD HTAP box)", boxNo)
	}
	partitioned := false
	switch granularity {
	case "", "object":
	case "partition":
		partitioned = true
		if wl != "tpcc" {
			return fmt.Errorf("partition granularity needs the profile-driven tpcc workload (the DSS paths plan against object statistics and cannot apportion)")
		}
	default:
		return fmt.Errorf("unknown granularity %q (want object or partition)", granularity)
	}
	if *replicationFlag {
		if wl != "tpcc" {
			return fmt.Errorf("-replication needs the profile-driven tpcc workload (the DSS estimators plan single-class placements and have no replica form)")
		}
		if partitioned {
			return fmt.Errorf("-replication places whole objects; drop -granularity partition")
		}
	}
	fmt.Printf("box: %s — %v\n", box.Name, box.Classes())
	switch wl {
	case "tpch", "tpch-mod":
		return adviseTPCH(box, wl == "tpch-mod", sla, sf, seed, searchWorkers)
	case "tpcc":
		return adviseTPCC(box, sla, workers, searchWorkers, seed, partitioned)
	case "sql":
		if schemaSQL == "" || queries == "" {
			return fmt.Errorf("the sql workload needs -schema and -queries files")
		}
		return adviseSQL(box, sla, schemaSQL, queries, searchWorkers)
	default:
		return fmt.Errorf("unknown workload %q", wl)
	}
}

// adviseSQL provisions a user-supplied SQL workload: the schema script
// creates and populates the database, the query script defines W.
func adviseSQL(box *device.Box, sla float64, schemaPath, queryPath string, searchWorkers int) error {
	schemaSrc, err := os.ReadFile(schemaPath)
	if err != nil {
		return err
	}
	querySrc, err := os.ReadFile(queryPath)
	if err != nil {
		return err
	}
	db := engine.New(box, engine.DefaultPoolPages)
	if _, err := sql.Exec(db, string(schemaSrc)); err != nil {
		return fmt.Errorf("schema script: %w", err)
	}
	db.ResizePool(max32(db.TotalPages() / 8))
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		return err
	}
	if err := db.Analyze(); err != nil {
		return err
	}
	qs, err := sql.ParseWorkload(db, string(querySrc))
	if err != nil {
		return fmt.Errorf("query script: %w", err)
	}
	w := &workload.DSS{Name: "sql", Queries: qs}
	fmt.Printf("profiling %d queries on %d baseline layouts...\n",
		len(qs), len(core.BaselinePatterns(db.Cat, box)))
	ps, err := profiler.ProfileDSSEstimates(db, w)
	if err != nil {
		return err
	}
	in := core.Input{Cat: db.Cat, Box: box, Est: w.Estimator(db), Profiles: ps, Concurrency: 1, Workers: searchWorkers}
	res, val, err := adviseDSS(in, core.Options{RelativeSLA: sla}, &runner{db: db, w: w})
	if err != nil {
		return err
	}
	report(db.Cat, box, res)
	if val != nil {
		fmt.Printf("validated: PSR %.0f%% (measured %v for the workload)\n",
			val.PSR*100, val.Measured.Elapsed.Round(time.Millisecond))
	}
	return nil
}

// adviseDSS runs the configured search for the DSS paths: the greedy DOT
// optimizer with a validation loop by default, the exhaustive
// branch-and-bound enumeration (no validation round — the enumeration is
// already the quality ceiling) under -exhaustive.
func adviseDSS(in core.Input, opts core.Options, r core.Runner) (*core.Result, *core.Validation, error) {
	if *exhaustiveFlag {
		res, err := core.Exhaustive(in, opts)
		return res, nil, err
	}
	res, val, err := core.OptimizeValidated(in, opts, r, 3)
	return res, val, err
}

func adviseTPCH(box *device.Box, modified bool, sla, sf float64, seed int64, searchWorkers int) error {
	db := engine.New(box, engine.DefaultPoolPages)
	cfg := tpch.Config{ScaleFactor: sf, Seed: seed}
	fmt.Printf("loading TPC-H (SF %g)...\n", sf)
	if err := tpch.Build(db, cfg); err != nil {
		return err
	}
	db.ResizePool(max32(db.TotalPages() / 8))
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		return err
	}
	var w *workload.DSS
	if modified {
		w = tpch.ModifiedWorkload(cfg, seed+1)
	} else {
		w = tpch.OriginalWorkload(cfg, seed+1)
	}
	fmt.Printf("profiling %s (%d queries) on %d baseline layouts...\n",
		w.Name, len(w.Queries), len(core.BaselinePatterns(db.Cat, box)))
	ps, err := profiler.ProfileDSSEstimates(db, w)
	if err != nil {
		return err
	}
	in := core.Input{Cat: db.Cat, Box: box, Est: w.Estimator(db), Profiles: ps, Concurrency: 1, Workers: searchWorkers}
	res, val, err := adviseDSS(in, core.Options{RelativeSLA: sla}, &runner{db: db, w: w})
	if err != nil {
		return err
	}
	report(db.Cat, box, res)
	if val != nil {
		fmt.Printf("validated: PSR %.0f%% (measured %v for the workload)\n",
			val.PSR*100, val.Measured.Elapsed.Round(time.Millisecond))
	}
	return nil
}

type runner struct {
	db *engine.DB
	w  *workload.DSS
}

func (r *runner) Run(l catalog.Layout) (workload.Observation, error) {
	if err := r.db.SetLayout(l); err != nil {
		return workload.Observation{}, err
	}
	return r.w.RunDetailed(r.db)
}

func adviseTPCC(box *device.Box, sla float64, workers, searchWorkers int, seed int64, partitioned bool) error {
	db := engine.New(box, engine.DefaultPoolPages)
	cfg := tpcc.DefaultConfig()
	cfg.Seed = seed
	fmt.Printf("loading TPC-C (%d warehouses)...\n", cfg.Warehouses)
	if err := tpcc.Build(db, cfg); err != nil {
		return err
	}
	db.ResizePool(max32(db.TotalPages() / 8))
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		return err
	}
	// At partition granularity the collector tap captures the test run's
	// page-located charges — the per-extent heat statistics the partitioner
	// splits on. Object-granular runs skip the tap: it takes the collector
	// mutex on every charge, for extent data the object path never reads.
	var col *online.Collector
	if partitioned {
		col = online.NewCollector(1)
		db.SetTap(col)
	}
	driver := &tpcc.Driver{Cfg: cfg, Workers: workers, Period: 500 * time.Millisecond, Seed: seed}
	fmt.Printf("test run on All H-SSD (%d workers)...\n", workers)
	probe, err := driver.Run(db)
	if err != nil {
		return err
	}
	db.SetTap(nil)
	fmt.Printf("baseline: %.0f tpmC over %d transactions\n", probe.TpmC, probe.TotalTxns)
	est, err := driver.Estimator(db, probe)
	if err != nil {
		return err
	}
	ps := core.NewProfileSet()
	ps.SetSingle(probe.Profile)
	// One search for one copy per object or several: -replication raises the
	// copy cap, so an object hammered by both scans and lookups can keep a
	// copy on each pattern's best class.
	in := core.Input{Cat: db.Cat, Box: box, Est: est, Profiles: ps, Concurrency: workers, Workers: searchWorkers,
		Replication: core.ReplicationConfig{Enabled: *replicationFlag, MaxReplicas: *maxReplicasFlag}}
	opts := core.Options{RelativeSLA: sla, Baseline: &probe.Metrics}
	if partitioned {
		return adviseTPCCPartitioned(db, box, in, opts, col)
	}
	search := core.OptimizeBest
	if *exhaustiveFlag {
		search = core.Exhaustive
	}
	res, err := search(in, opts)
	if err != nil {
		return err
	}
	report(db.Cat, box, res)
	if !res.Feasible {
		return nil
	}
	if res.Layout == nil {
		fmt.Println("validation skipped: the execution engine applies single-placement layouts only")
		return nil
	}
	if err := db.SetLayout(res.Layout); err != nil {
		return err
	}
	db.ClearPool()
	check, err := driver.Run(db)
	if err != nil {
		return err
	}
	fmt.Printf("validated: %.0f tpmC on the recommended layout (floor %.0f)\n",
		check.TpmC, probe.TpmC*sla)
	return nil
}

// adviseTPCCPartitioned is the partition-granular tail of adviseTPCC: the
// catalog is split on the test run's extent heat and the search places the
// units independently. The execution engine applies object-granular
// layouts, so the recommendation is reported (with its storage saving over
// the object-granular optimum) rather than validated in place.
func adviseTPCCPartitioned(db *engine.DB, box *device.Box, in core.Input, opts core.Options, col *online.Collector) error {
	pt, err := catalog.BuildPartitioning(db.Cat, col.ExtentStats(), catalog.PartitionOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("partitioned %d objects into %d placement units from live extent heat\n",
		db.Cat.NumObjects(), pt.NumUnits())
	obj, err := core.OptimizeBest(in, opts)
	if err != nil {
		return err
	}
	pres, err := core.OptimizePartitioned(in, pt, opts)
	if err != nil {
		return err
	}
	if !pres.Feasible {
		fmt.Println("NO FEASIBLE PARTITIONED LAYOUT — relax the SLA or add capacity")
		return nil
	}
	fmt.Printf("\nrecommended unit layout (optimized in %v over %d candidates, %d objects split):\n",
		pres.PlanTime.Round(time.Millisecond), pres.Evaluated, pres.SplitObjects())
	fmt.Print(flatLayout(pres.SetLayout, pt.UnitCatalog()))
	fmt.Printf("estimated TOC: %.4e cents per transaction (%.0f tasks/hour)\n",
		pres.TOCCents, pres.Metrics.Throughput)
	pcost, err := pres.Layout.CostCentsPerHour(pt.UnitCatalog(), box)
	if err != nil {
		return err
	}
	fmt.Printf("layout storage cost: %.4e cents/hour\n", pcost)
	if *searchStatsFlag {
		printSearchStats(pres.Result)
	}
	if obj.Feasible {
		ocost, err := obj.Layout.CostCentsPerHour(db.Cat, box)
		if err != nil {
			return err
		}
		fmt.Printf("object-granular optimum at the same SLA: %.4e cents/hour (%.2fx)\n",
			ocost, ocost/pcost)
	}
	return nil
}

// report prints a recommendation: the layout one line per object (a
// replicated object lists its copy classes), the estimated TOC and the
// storage cost.
func report(cat *catalog.Catalog, box *device.Box, res *core.Result) {
	if !res.Feasible {
		fmt.Println("NO FEASIBLE LAYOUT — relax the SLA or add capacity")
		return
	}
	copies := ""
	if res.MaxCopies() > 1 {
		copies = fmt.Sprintf(", up to %d copies", res.MaxCopies())
	}
	fmt.Printf("\nrecommended layout (optimized in %v over %d candidates%s):\n%s",
		res.PlanTime.Round(time.Millisecond), res.Evaluated, copies, flatLayout(res.SetLayout, cat))
	fmt.Printf("estimated TOC: %.4e cents", res.TOCCents)
	if res.Metrics.Throughput > 0 {
		fmt.Printf(" per transaction (%.0f tasks/hour)", res.Metrics.Throughput)
	} else {
		fmt.Printf(" per workload run (%v)", res.Metrics.Elapsed.Round(time.Millisecond))
	}
	fmt.Println()
	if cost, err := res.SetLayout.CostCentsPerHour(cat, box); err == nil {
		fmt.Printf("layout storage cost: %.4e cents/hour", cost)
		if extra := res.ReplicatedCopies(); extra > 0 {
			fmt.Printf(" (%d extra copies)", extra)
		}
		fmt.Println()
	}
	if *searchStatsFlag {
		printSearchStats(res)
	}
}

// printSearchStats renders -search-stats: the enumeration's work profile
// from Result.Search. The greedy sweeps only fill the candidate count; the
// exhaustive branch-and-bound walk reports its whole profile.
func printSearchStats(res *core.Result) {
	st := res.Search
	fmt.Printf("search: %d candidates evaluated", st.Candidates)
	if st.SpaceSize > 0 {
		fmt.Printf(" of %.0f raw layouts", st.SpaceSize)
	}
	fmt.Println()
	if st.BoundPruned > 0 {
		fmt.Printf("search: cost floor pruned %d subtrees\n", st.BoundPruned)
	}
	if st.Groups > 0 {
		fmt.Printf("search: %d symmetric groups over %d units collapse the space to %.0f canonical layouts\n",
			st.Groups, st.GroupedUnits, st.CanonicalSize)
	}
	if st.RootFloorCents > 0 && res.TOCCents > 0 {
		fmt.Printf("search: root bound %.4e cents (%.0f%% of the winning TOC)\n",
			st.RootFloorCents, 100*st.RootFloorCents/res.TOCCents)
	}
	if st.FrontierTasks > 0 {
		fmt.Printf("search: parallel frontier of %d tasks at split depth %d\n",
			st.FrontierTasks, st.SplitDepth)
	}
}

// flatLayout renders a layout one line per placement unit, the copy classes
// joined with " + ", sorted by object/unit name — a stable, diffable order
// regardless of map iteration.
func flatLayout(sl catalog.SetLayout, cat *catalog.Catalog) string {
	type row struct{ name, classes string }
	rows := make([]row, 0, len(sl))
	for id, set := range sl {
		o := cat.Object(id)
		if o == nil {
			continue
		}
		parts := make([]string, 0, set.Count())
		for _, cls := range set.Classes() {
			parts = append(parts, cls.String())
		}
		rows = append(rows, row{o.Name, strings.Join(parts, " + ")})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %s\n", r.name, r.classes)
	}
	return b.String()
}

func max32(n int) int {
	if n < 32 {
		return 32
	}
	return n
}
