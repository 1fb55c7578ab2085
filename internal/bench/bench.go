// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§4) plus the §5 extensions, printing
// rows in the paper's shape. cmd/dotbench and the repository's Go benchmarks
// drive it; Options scales the data so the same code runs laptop-quick or
// larger.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dotprov/internal/device"
	"dotprov/internal/tpcc"
)

// Options scales the experiments.
type Options struct {
	TpchSF      float64       // TPC-H scale factor
	TpchSeed    int64         // workload parameter seed
	TpccCfg     tpcc.Config   // TPC-C population
	TpccWorkers int           // degree of concurrency for TPC-C (paper: 300)
	TpccPeriod  time.Duration // measured period of virtual time (paper: 1 hour)
}

// Default returns the standard harness scale: small enough for a laptop,
// large enough that every paper shape is visible.
func Default() Options {
	cfg := tpcc.DefaultConfig()
	return Options{
		TpchSF:      0.004,
		TpchSeed:    42,
		TpccCfg:     cfg,
		TpccWorkers: 8,
		TpccPeriod:  500 * time.Millisecond,
	}
}

// Quick returns a reduced scale for use inside `go test -bench`.
func Quick() Options {
	o := Default()
	o.TpchSF = 0.002
	o.TpccCfg.Warehouses = 1
	o.TpccCfg.CustomersPerDist = 20
	o.TpccCfg.Items = 100
	o.TpccCfg.OrdersPerDistrict = 20
	o.TpccWorkers = 4
	o.TpccPeriod = 200 * time.Millisecond
	return o
}

// LayoutRow is one line of a figure: a layout and its measured economics.
type LayoutRow struct {
	Name     string
	Elapsed  time.Duration // DSS response time for the whole workload
	TpmC     float64       // OLTP throughput (0 for DSS)
	TOCCents float64
	PSR      float64 // fraction of queries meeting the relative SLA
	INLJPct  float64 // share of INLJ joins in the plans (DSS figures)
}

// FigureResult is one experiment's structured output, so tests can assert
// the paper's shapes without re-parsing text.
type FigureResult struct {
	ID      string
	BoxRows map[string][]LayoutRow // box name -> rows
	Layouts map[string]string      // label -> rendered layout (Fig 4/6, Table 3)
	Notes   []string
}

// Row returns the named row for a box, or nil.
func (f *FigureResult) Row(box, name string) *LayoutRow {
	for i := range f.BoxRows[box] {
		if f.BoxRows[box][i].Name == name {
			return &f.BoxRows[box][i]
		}
	}
	return nil
}

func (f *FigureResult) addRow(box string, r LayoutRow) {
	if f.BoxRows == nil {
		f.BoxRows = make(map[string][]LayoutRow)
	}
	f.BoxRows[box] = append(f.BoxRows[box], r)
}

func (f *FigureResult) note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// print renders the figure in the paper's row shape.
func (f *FigureResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", f.ID)
	var boxes []string
	for b := range f.BoxRows {
		boxes = append(boxes, b)
	}
	sort.Strings(boxes)
	for _, b := range boxes {
		fmt.Fprintf(w, "-- %s --\n", b)
		rows := f.BoxRows[b]
		dss := true
		for _, r := range rows {
			if r.TpmC > 0 {
				dss = false
			}
		}
		if dss {
			fmt.Fprintf(w, "%-30s %14s %14s %6s %6s\n", "layout", "resp time", "TOC (cents)", "PSR%", "INLJ%")
			for _, r := range rows {
				fmt.Fprintf(w, "%-30s %14s %14.4e %5.0f%% %5.0f%%\n",
					r.Name, r.Elapsed.Round(time.Millisecond), r.TOCCents, r.PSR*100, r.INLJPct*100)
			}
		} else {
			fmt.Fprintf(w, "%-30s %12s %16s\n", "layout", "tpmC", "TOC (cents/txn)")
			for _, r := range rows {
				fmt.Fprintf(w, "%-30s %12.0f %16.4e\n", r.Name, r.TpmC, r.TOCCents)
			}
		}
	}
	var labels []string
	for l := range f.Layouts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(w, "-- layout: %s --\n%s", l, f.Layouts[l])
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// boxes returns fresh clones of the paper's two box configurations.
func boxes() []*device.Box { return []*device.Box{device.Box1(), device.Box2()} }
