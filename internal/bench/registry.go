package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, opts Options) error
}

// Experiments returns the registry of every table and figure, keyed by the
// ids cmd/dotbench accepts.
func Experiments() map[string]Experiment {
	wrap := func(f func(io.Writer, Options) (*FigureResult, error)) func(io.Writer, Options) error {
		return func(w io.Writer, o Options) error {
			_, err := f(w, o)
			return err
		}
	}
	return map[string]Experiment{
		"table1": {
			ID: "table1", Title: "Table 1: cost and I/O profiles of the storage classes",
			Run: func(w io.Writer, _ Options) error { return Table1(w) },
		},
		"table2": {
			ID: "table2", Title: "Table 2: storage class specifications",
			Run: func(w io.Writer, _ Options) error { return Table2(w) },
		},
		"fig3": {
			ID: "fig3", Title: "Figure 3 + Figure 4: original TPC-H, SLA 0.5",
			Run: wrap(Figure3),
		},
		"fig5": {
			ID: "fig5", Title: "Figure 5 + Figure 6: modified TPC-H, SLA 0.5",
			Run: wrap(Figure5),
		},
		"fig7": {
			ID: "fig7", Title: "Figure 7: modified TPC-H, SLA 0.25",
			Run: wrap(Figure7),
		},
		"es-tpch": {
			ID: "es-tpch", Title: "Sec 4.4.3: DOT vs exhaustive search (TPC-H subset)",
			Run: wrap(Sec443),
		},
		"fig8": {
			ID: "fig8", Title: "Figure 8 + Table 3: TPC-C, DOT under relaxing SLAs",
			Run: wrap(Figure8),
		},
		"fig9": {
			ID: "fig9", Title: "Figure 9: ES vs DOT on TPC-C with capacity limits",
			Run: wrap(Figure9),
		},
		"provision": {
			ID: "provision", Title: "Sec 5.1: generalized provisioning",
			Run: wrap(Provision),
		},
		"skew": {
			ID: "skew", Title: "Partition granularity: object vs partitioned DOT on the Zipf hot/cold fixture",
			Run: wrap(Skew),
		},
		"discrete": {
			ID: "discrete", Title: "Sec 5.2: discrete-sized storage cost model",
			Run: wrap(Discrete),
		},
	}
}

// IDs returns the experiment ids in stable order.
func IDs() []string {
	var out []string
	for id := range Experiments() {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, opts Options) error {
	for _, id := range IDs() {
		e := Experiments()[id]
		fmt.Fprintf(w, "\n######## %s ########\n", e.Title)
		if err := e.Run(w, opts); err != nil {
			return fmt.Errorf("bench: experiment %s: %w", id, err)
		}
	}
	return nil
}
