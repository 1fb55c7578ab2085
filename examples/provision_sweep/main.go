// Provision sweep: the paper's §5 generalized provisioning problem as a
// fleet would run it — enumerate candidate storage configurations from a
// declarative device grid (unit counts × device types × alpha blend points
// of the discrete-sized cost model), search a layout for each through the
// shared engine, and buy the cheapest configuration whose layout meets the
// SLA.
//
//	go run ./examples/provision_sweep
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/provision"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A warehouse-ish database: a big scanned fact table, a hot index, a
	// write-heavy log.
	cat := catalog.New()
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	facts, err := cat.CreateTable("facts", schema, []string{"k"})
	if err != nil {
		return err
	}
	ix, err := cat.CreateIndex("facts_pkey", facts.ID, []string{"k"}, true)
	if err != nil {
		return err
	}
	wal, err := cat.CreateAux("wal", catalog.KindLog, 2e9)
	if err != nil {
		return err
	}
	// 112 GB total: small candidate boxes (a lone 80 GB H-SSD) cannot hold
	// it, so the sweep also demonstrates per-candidate failure reasons.
	cat.SetSize(facts.ID, 100e9)
	cat.SetSize(ix.ID, 10e9)

	// The workload profile: heavy sequential scans of the facts, random
	// point reads on the index, sequential WAL appends.
	prof := iosim.NewProfile()
	prof.Add(facts.ID, device.SeqRead, 4e6)
	prof.Add(ix.ID, device.RandRead, 2e5)
	prof.Add(wal.ID, device.SeqWrite, 1e6)

	ps := core.NewProfileSet()
	ps.SetSingle(prof)

	// The candidate space: up to two HDD RAID 0 or L-SSD units, at most one
	// H-SSD, priced at three alpha blend points of the §5.2 discrete model.
	grid := provision.Grid{
		Devices: []provision.DeviceOption{
			{Class: device.HDDRAID0, Counts: []int{0, 1, 2}},
			{Class: device.LSSD, Counts: []int{0, 1, 2}},
			{Class: device.HSSD, Counts: []int{0, 1}},
		},
		Alphas: []float64{0, 0.5, 1},
	}
	// The estimator prices the frozen profile on the grid's universe box,
	// which carries every class a candidate may contain; the sweep compiles
	// it once for all candidates.
	est := &workload.ObservedEstimator{
		Box:         grid.Universe(),
		Concurrency: 1,
		PerQuery:    []workload.QueryObservation{{Profile: prof}},
	}

	base := core.Input{
		Cat:         cat,
		Est:         est,
		Profiles:    ps,
		Concurrency: 1,
		Workers:     runtime.NumCPU(),
	}
	start := time.Now()
	choice, err := provision.SweepConfigurations(base, grid, core.Options{RelativeSLA: 0.5})
	if err != nil {
		return err
	}
	fmt.Printf("swept %d candidate configurations in %v (%d layouts investigated, %d of them estimated; the rest were memo hits)\n\n",
		len(choice.Results), time.Since(start).Round(time.Millisecond), choice.Evaluated, choice.EstimatorCalls)
	for i, r := range choice.Results {
		marker := "  "
		if i == choice.Best {
			marker = "->"
		}
		if r.Result.Feasible {
			fmt.Printf("%s %-42s TOC %.4e cents/run\n", marker, r.Name, r.Result.TOCCents)
		} else {
			fmt.Printf("%s %-42s infeasible: %s\n", marker, r.Name, r.Failure)
		}
	}
	if choice.Best < 0 {
		return fmt.Errorf("no feasible configuration — relax the SLA or widen the grid")
	}
	best := choice.Results[choice.Best]
	fmt.Printf("\nbuy: %s\n%s", best.Name, best.Result.Layout.String(cat))
	return nil
}
