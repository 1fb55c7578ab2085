// Command dotlive demonstrates the online advising loop end to end, in one
// process: it builds a scaled-down TPC-C database, installs the online
// profile collector as the engine's I/O tap, replays a workload whose mix
// shifts mid-run from pure OLTP (the TPC-C transaction mix, random-I/O
// dominated) to HTAP (the same transactions plus TPC-H-style analytical
// scans over orders and order lines, sequential-I/O dominated), and prints
// every window's drift check and re-advise decision.
//
//	go run ./cmd/dotlive
//	go run ./cmd/dotlive -windows 8 -shift-at 4 -sla 0.25 -box 1
//	go run ./cmd/dotlive -replication -sla 0.5
//
// With -replication the demo drives the replica-set advisor on the
// striped-HDD HTAP box: the stream opens with point lookups (single copies
// on the H-SSD), the analytical scans join mid-run and the re-advise GROWS
// a second scan copy of the fact table on the HDD stripe — reads route per
// pattern to their best replica, writes land on every copy — and when the
// scans fade the next re-advise DROPS the copy again (drops are free,
// adds are priced against the SLA headroom).
//
// Expected shape of the output: the OLTP windows confirm the initial
// layout (divergence ≈ 0, no re-advise); the first HTAP window trips the
// drift detector and the advisor re-advises incrementally — a handful of
// objects move, priced against the migration budget — after which the
// drifted mix becomes the new reference and subsequent windows settle
// again.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/iosim"
	"dotprov/internal/online"
	"dotprov/internal/plan"
	"dotprov/internal/tpcc"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

func main() {
	var (
		boxNo      = flag.Int("box", 2, "storage box (1 or 2)")
		sla        = flag.Float64("sla", 0.25, "relative SLA in (0, 1]")
		windows    = flag.Int("windows", 6, "observation windows to replay")
		shiftAt    = flag.Int("shift-at", 3, "window (1-based) at which the analytical mix joins the stream")
		workers    = flag.Int("workers", 4, "concurrent OLTP workers (degree of concurrency)")
		period     = flag.Duration("period", 2*time.Second, "virtual measured period per window and worker")
		poolPages  = flag.Int("pool-pages", 512, "buffer pool pages")
		threshold  = flag.Float64("drift-threshold", 0.2, "relative I/O-time divergence that triggers re-advising")
		replicated = flag.Bool("replication", false, "drive the replica-set advisor on the HTAP box: grow a scan copy when analytics join the mix, drop it on revert")
		revertAt   = flag.Int("revert-at", 5, "-replication: window (1-based) at which the analytical scans fade again")
		maxCopies  = flag.Int("max-replicas", 2, "-replication: copies per object cap (<1 means one per storage class)")
		headroom   = flag.Float64("headroom", 1.0, "-replication: fraction of the SLA headroom the migration gate may spend copying data (copying 40 GB onto the stripe is a real cost)")
		observeURL = flag.String("observe-url", "", "mirror observation windows to a running dotserve at this base URL (e.g. http://localhost:8080; empty disables)")
		observeStr = flag.String("observe-stream", "dotlive", "stream name for -observe-url mirroring")
	)
	flag.Parse()
	if *replicated {
		if err := runReplicated(*sla, *windows, *shiftAt, *revertAt, *maxCopies, *headroom); err != nil {
			log.Fatalf("dotlive: %v", err)
		}
		return
	}
	if err := run(*boxNo, *sla, *windows, *shiftAt, *workers, *period, *poolPages, *threshold, *observeURL, *observeStr); err != nil {
		log.Fatalf("dotlive: %v", err)
	}
}

// runReplicated is the -replication demo: the replica-set advisor on the
// striped-HDD HTAP box, driven by synthetic observation windows. The arc: point
// lookups define the stream and place single copies; the analytical scans
// join at -shift-at and the drifted re-advise grows a second scan copy of
// the fact table on the HDD stripe; the scans fade at -revert-at and the
// next re-advise drops the copy again.
func runReplicated(sla float64, windows, shiftAt, revertAt, maxCopies int, headroom float64) error {
	if revertAt <= shiftAt {
		return fmt.Errorf("-revert-at %d must come after -shift-at %d", revertAt, shiftAt)
	}
	box := device.BoxHTAP()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	orders, err := cat.CreateTable("orders", sch, []string{"id"})
	if err != nil {
		return err
	}
	ix, err := cat.CreateIndex("orders_pkey", orders.ID, []string{"id"}, true)
	if err != nil {
		return err
	}
	cat.SetSize(orders.ID, 40e9)
	cat.SetSize(ix.ID, 2e9)
	mgr, err := online.NewManager(online.Config{
		Cat: cat, Box: box, SLA: sla,
		HeadroomFraction: headroom,
		Replication:      core.ReplicationConfig{Enabled: true, MaxReplicas: maxCopies},
	})
	if err != nil {
		return err
	}
	fmt.Printf("dotlive -replication: orders (40 GB) + pkey on %s, SLA %g, %d windows (scans join at %d, fade at %d)\n",
		box.Name, sla, windows, shiftAt, revertAt)

	lookups := func() online.Window {
		p := iosim.NewProfile()
		p.Add(orders.ID, device.RandRead, 150000)
		p.Add(ix.ID, device.RandRead, 50000)
		return online.Window{Profile: p, CPU: 100 * time.Millisecond, Elapsed: time.Hour}
	}
	// Two full fact-table scans per window: heavy enough that the SLA
	// headroom on the drifted baseline covers the ~2 minutes it takes to
	// materialize a 40 GB copy, so the migration gate admits the grow.
	scanLookups := func() online.Window {
		p := iosim.NewProfile()
		p.Add(orders.ID, device.SeqRead, 1e7)
		p.Add(orders.ID, device.RandRead, 150000)
		p.Add(ix.ID, device.RandRead, 50000)
		return online.Window{Profile: p, CPU: 100 * time.Millisecond, Elapsed: time.Hour}
	}

	printSet := func(sl catalog.SetLayout) {
		fmt.Print(sl.String(cat))
	}

	for w := 1; w <= windows; w++ {
		label, win := "oltp", lookups()
		if w >= shiftAt && w < revertAt {
			label, win = "htap", scanLookups()
		}
		mgr.Observe(win)

		if w == 1 {
			dec, err := mgr.Advise()
			if err != nil {
				return err
			}
			if !dec.Feasible {
				return fmt.Errorf("initial advise infeasible at SLA %g", sla)
			}
			fmt.Printf("window %d [%s]: initial advise — max %d copies per object, TOC %.4e cents, %d candidates\n",
				w, label, dec.Result.MaxCopies(), dec.Result.TOCCents, dec.Result.Evaluated)
			printSet(dec.SetTo)
			continue
		}

		dec, err := mgr.ReAdvise(false)
		if err != nil {
			return err
		}
		if printDecision(w, label, dec) {
			printSet(dec.SetTo)
		}
	}

	st := mgr.Stats()
	fmt.Printf("done: %d windows, %d drift checks, %d drifted, %d re-advises (%d full fallbacks)\n",
		st.WindowsClosed, st.Checks, st.Drifts, st.ReAdvises, st.Fallbacks)
	return nil
}

// analyticsMix is the TPC-H-style read side of the HTAP phase: full scans
// and a join over the TPC-C fact tables, the access pattern the deployed
// OLTP layout was not optimized for.
func analyticsMix() *workload.DSS {
	return &workload.DSS{Name: "htap-analytics", Queries: []*plan.Query{
		{
			Name:   "revenue",
			Tables: []string{"order_line"},
			Aggs:   []plan.Agg{{Func: plan.Sum, Table: "order_line", Column: "ol_amount"}, {Func: plan.Count}},
		},
		{
			Name:   "order-volume",
			Tables: []string{"orders"},
			Aggs:   []plan.Agg{{Func: plan.Avg, Table: "orders", Column: "o_ol_cnt"}, {Func: plan.Count}},
		},
		{
			Name:   "customer-order-join",
			Tables: []string{"customer", "orders"},
			Joins: []plan.EquiJoin{{
				LeftTable: "customer", LeftColumn: "c_id",
				RightTable: "orders", RightColumn: "o_c_id",
			}},
			Aggs: []plan.Agg{{Func: plan.Count}},
		},
		{
			Name:   "stock-levels",
			Tables: []string{"stock"},
			Aggs:   []plan.Agg{{Func: plan.Avg, Table: "stock", Column: "s_quantity"}, {Func: plan.Count}},
		},
	}}
}

func run(boxNo int, sla float64, windows, shiftAt, workers int, period time.Duration, poolPages int, threshold float64, observeURL, observeStream string) error {
	var box *device.Box
	switch boxNo {
	case 1:
		box = device.Box1()
	case 2:
		box = device.Box2()
	default:
		return fmt.Errorf("unknown box %d (want 1 or 2)", boxNo)
	}
	boxName := fmt.Sprintf("box%d", boxNo)
	fmt.Printf("dotlive: TPC-C on %s, SLA %g, %d windows (mix shifts at window %d)\n",
		box.Name, sla, windows, shiftAt)

	db := engine.New(box, poolPages)
	cfg := tpcc.DefaultConfig()
	if err := tpcc.Build(db, cfg); err != nil {
		return err
	}
	// Deploy the profiling baseline: everything on the most expensive class
	// (the paper's L0), the layout the first window is captured under.
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, box.MostExpensive().Class)); err != nil {
		return err
	}

	mgr, err := online.NewManager(online.Config{
		Cat:            db.Cat,
		Box:            box,
		Concurrency:    workers,
		SLA:            sla,
		DriftThreshold: threshold,
	})
	if err != nil {
		return err
	}
	// The capture point: every buffer miss and row write any session
	// charges from here on streams into the collector's current window.
	db.SetTap(mgr.Collector())

	driver := &tpcc.Driver{Cfg: cfg, Workers: workers, Period: period, Seed: 42}
	analytics := analyticsMix()

	var mir *mirror
	defer func() { mir.close() }()

	for w := 1; w <= windows; w++ {
		htap := w >= shiftAt
		label := "oltp"
		if htap {
			label = "htap"
		}
		run, err := driver.Run(db)
		if err != nil {
			return fmt.Errorf("window %d: %w", w, err)
		}
		elapsed := run.Stats.Elapsed
		col := mgr.Collector()
		col.AddCPU(run.CPUTime)
		col.AddTxns(run.Stats.Txns)
		if htap {
			// The OLTP phase's inserts staled the planner statistics; refresh
			// them before the analytical queries plan (uncharged, like DDL).
			if err := db.Analyze(); err != nil {
				return err
			}
			// RunDetailed reports per-query CPU, so the window's CPU and
			// elapsed stay consistent.
			obs, err := analytics.RunDetailed(db)
			if err != nil {
				return fmt.Errorf("window %d analytics: %w", w, err)
			}
			elapsed += obs.Metrics.Elapsed
			for _, q := range obs.PerQuery {
				col.AddCPU(q.CPU)
			}
		}
		win := col.Roll(elapsed)
		if w == 1 && observeURL != "" {
			// The first window defines the mirror stream (JSON observe);
			// later windows ship as binary frames through the obsclient.
			mir, err = newMirror(observeURL, observeStream, db, boxName, sla, threshold, workers, win)
			if err != nil {
				return fmt.Errorf("mirroring to %s: %w", observeURL, err)
			}
		} else {
			mir.ship(win)
		}

		if w == 1 {
			dec, err := mgr.Advise()
			if err != nil {
				return err
			}
			if !dec.Feasible {
				return fmt.Errorf("initial advise infeasible at SLA %g", sla)
			}
			if err := db.SetLayout(dec.Result.Layout); err != nil {
				return err
			}
			fmt.Printf("window %d [%s]: initial advise — %d objects placed, TOC %.4e cents/txn, %d candidates in %v\n",
				w, label, len(dec.Result.Layout), dec.Result.TOCCents, dec.Result.Evaluated,
				dec.Result.PlanTime.Round(time.Millisecond))
			continue
		}

		dec, err := mgr.ReAdvise(false)
		if err != nil {
			return err
		}
		if printDecision(w, label, dec) {
			if err := db.SetLayout(dec.Result.Layout); err != nil {
				return err
			}
		}
	}

	st := mgr.Stats()
	fmt.Printf("done: %d windows, %d drift checks, %d drifted, %d re-advises (%d full fallbacks)\n",
		st.WindowsClosed, st.Checks, st.Drifts, st.ReAdvises, st.Fallbacks)
	return nil
}

// printDecision prints window w's re-advise decision, for both arcs, and
// reports whether it adopted a new layout, which the caller then deploys.
// A change in the most copies any object keeps reads as a grown or
// dropped copy.
func printDecision(w int, label string, dec *online.Decision) bool {
	head := fmt.Sprintf("window %d [%s]: ", w, label)
	switch {
	case dec.Drift.Thin:
		fmt.Println(head + "window too thin to judge, no action")
	case !dec.Drift.Drifted:
		fmt.Printf("%sno drift (divergence %.3f), layout unchanged\n", head, dec.Drift.Divergence)
	case !dec.Feasible:
		fmt.Printf("%sDRIFT (divergence %.3f) but no feasible layout — keeping current, will retry\n",
			head, dec.Drift.Divergence)
	case !dec.ReAdvised:
		fmt.Printf("%sDRIFT (divergence %.3f), search confirmed the deployed layout (%d candidates)\n",
			head, dec.Drift.Divergence, dec.Result.Evaluated)
	default:
		mode := "incremental"
		if !dec.Incremental {
			mode = "full fallback"
		}
		verb := "re-advised"
		if grew := dec.Result.MaxCopies() - dec.SetFrom.MaxCopies(); grew > 0 {
			verb = "GREW a copy"
		} else if grew < 0 {
			verb = "DROPPED a copy"
		}
		fmt.Printf("%sDRIFT (divergence %.3f) → %s (%s): %d moves (%.1f MB copied, migration %v), TOC %.4e, %d candidates in %v\n",
			head, dec.Drift.Divergence, verb, mode, len(dec.Migration.Moves),
			float64(dec.Migration.Bytes)/1e6, dec.Migration.Time.Round(time.Millisecond),
			dec.Result.TOCCents, dec.Result.Evaluated, dec.Result.PlanTime.Round(time.Millisecond))
		return true
	}
	return false
}
