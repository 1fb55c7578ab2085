// Command e2e is the repository's end-to-end benchmark: it drives the
// advisor the way its callers do — HTTP over a loopback socket into an
// in-process serve.Server, and the cmd/dotadvisor pipelines over the
// simulated DBMS — on seven seeded workloads, checks every answer, and
// reports the caller-visible metrics of BENCHMARK.json plus, from a traced
// single-threaded replay, the per-layer metrics that attribute them.
//
// One workload, as the benchmark driver runs it (from the repository
// root, through benchmarks/run.sh):
//
//	e2e --workload advise_small --seed 1 --seconds 12 --trace 0
//
// prints every end-to-end metric by name and unit and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics};
// --trace 1 adds the traced replay and reports the per-layer metrics
// instead. Without --workload the command runs the whole ledger — each
// workload in a process of its own, so heap, GC state and the resident-set
// high-water mark never leak between workloads — and with -repeat N it
// runs the ledger N times and judges every metric's spread against its
// bound. -quick shrinks everything to seconds. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// benchmarkFile mirrors the parts of BENCHMARK.json the command reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the working directory (the
// repository root).
func loadBenchmarkFile() (*benchmarkFile, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	repeat   int
	both     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs the whole ledger, one process per workload")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every input generator")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured window in seconds (0: run_seconds of BENCHMARK.json, or 1 with -quick)")
	flag.IntVar(&o.trace, "trace", 0, "0: report the end-to-end metrics; 1: also run the traced replay and report the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test scale: 1 s windows, 8 tenants, TPC-H SF 0.001")
	flag.IntVar(&o.repeat, "repeat", 1, "whole-ledger mode: run the set N times and judge each metric's spread against its bound")
	flag.BoolVar(&o.both, "both", false, "with -trace 1: put the end-to-end metrics in the result line too (the ledger mode's child processes use it)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if o.seconds == 0 {
		o.seconds = 1
		if !o.quick {
			bf, err := loadBenchmarkFile()
			if err != nil {
				fatalf("%v (run from the repository root)", err)
			}
			o.seconds = float64(bf.RunSeconds)
		}
	}
	if o.workload == "" {
		os.Exit(runLedger(o))
	}
	os.Exit(runOne(o))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2e: "+format+"\n", args...)
	os.Exit(2)
}

// configFor lowers the flags onto one workload's run configuration.
func configFor(o options) runConfig {
	cfg := runConfig{
		workload: o.workload,
		seed:     o.seed,
		window:   time.Duration(o.seconds * float64(time.Second)),
		warmup:   1500 * time.Millisecond,
		quick:    o.quick,
		nproc:    runtime.NumCPU(),
		outDir:   filepath.Join("benchmarks", "e2e", "out"),
		tmpDir:   filepath.Join(".bench_build", "tmp"),
	}
	if o.quick {
		cfg.warmup = 200 * time.Millisecond
	}
	if o.workload == wlOfflineTPCH || o.workload == wlOfflineTPCC {
		// The repeated set-up pipelines already are the warm-up.
		cfg.warmup = 0
	}
	if o.trace == 1 {
		cfg.replay = cfg.window / 4
	}
	return cfg
}

// runOne runs a single workload in this process and prints its result
// line. The exit status is 0 only when every validity check passed.
func runOne(o options) int {
	cfg := configFor(o)
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 2
	}
	printHuman(os.Stdout, res, o.trace == 1)
	line := resultLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	if o.trace == 0 || o.both {
		for _, m := range endToEndMetrics {
			line.Metrics[m.name] = metricOut{Value: res.endToEnd[m.name], Unit: m.unit}
		}
	}
	if o.trace == 1 {
		for _, m := range perLayerMetrics {
			line.Metrics[m.name] = metricOut{Value: res.perLayer[m.name], Unit: m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 2
	}
	fmt.Println(string(b))
	if !res.correct() {
		return 1
	}
	return 0
}

// printHuman prints the run's metrics by name with their units, then its
// notes and any failed checks.
func printHuman(w *os.File, res *runResult, layers bool) {
	fmt.Fprintf(w, "== %s\n", res.workload)
	for _, m := range endToEndMetrics {
		fmt.Fprintf(w, "%-20s %-32s %14.6g %s\n", res.workload, m.name, res.endToEnd[m.name], m.unit)
	}
	if layers {
		for _, m := range perLayerMetrics {
			if v, ok := res.perLayer[m.name]; ok {
				fmt.Fprintf(w, "%-20s %-32s %14.6g %s\n", res.workload, m.name, v, m.unit)
			}
		}
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "   FAILED CHECK: %s\n", p)
	}
}

// runLedger runs every workload in a child process of its own, repeat
// times over, prints the ledger with each end-to-end metric's bound and
// spread, writes it to out/ledger.json, and returns the exit status: 0
// only when every run was correct and every spread is within its bound.
func runLedger(o options) int {
	bf, err := loadBenchmarkFile()
	if err != nil {
		fatalf("%v (run from the repository root)", err)
	}
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	type cell struct{ workload, metric string }
	values := make(map[cell][]float64)
	status := 0
	start := time.Now()
	for rep := 0; rep < o.repeat; rep++ {
		for _, wl := range workloadNames {
			args := []string{"-workload", wl, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", "1", "-both"}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			err := cmd.Run()
			text := strings.TrimRight(out.String(), "\n")
			last := text[strings.LastIndexByte(text, '\n')+1:]
			fmt.Println(strings.TrimSuffix(text, last))
			var line resultLine
			if jerr := json.Unmarshal([]byte(last), &line); jerr != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s (set %d) printed no result: %v\n", wl, rep+1, err)
				status = 1
				continue
			}
			if err != nil || !line.Correct {
				fmt.Fprintf(os.Stderr, "e2e: %s (set %d) failed its validity checks\n", wl, rep+1)
				status = 1
			}
			for name, m := range line.Metrics {
				values[cell{wl, name}] = append(values[cell{wl, name}], m.Value)
			}
		}
	}

	fmt.Printf("\n== ledger: %d set(s), seed %d, %.0f s windows, %s\n", o.repeat, o.seed, o.seconds, time.Since(start).Round(time.Second))
	fmt.Printf("%-20s %-20s %14s %14s %14s %10s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Values   []float64 `json:"values"`
		Median   float64   `json:"median"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound,omitempty"`
	}
	var rows []row
	for _, wl := range workloadNames {
		for _, m := range bf.EndToEnd {
			v := values[cell{wl, m.Name}]
			if len(v) == 0 {
				continue
			}
			s := sortedCopy(v)
			med := median(v)
			// Under four values the quartile cut points extrapolate past
			// the data; show the extremes instead.
			q1, q3 := s[0], s[len(s)-1]
			if len(v) >= 4 {
				q1, _, q3, _ = quartiles(v)
			}
			spread := 0.0
			if med != 0 {
				spread = (s[len(s)-1] - s[0]) / med
			}
			verdict := ""
			if len(v) >= 2 && spread > m.Bound {
				verdict = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Printf("%-20s %-20s %14.6g %14.6g %14.6g %9.2f%% %7.0f%%%s\n", wl, m.Name, med, q1, q3, spread*100, m.Bound*100, verdict)
			rows = append(rows, row{wl, m.Name, m.Unit, v, med, spread, m.Bound})
		}
	}
	for _, wl := range workloadNames {
		for _, m := range perLayerMetrics {
			if v := values[cell{wl, m.name}]; len(v) > 0 {
				s := sortedCopy(v)
				spread := 0.0
				if med := median(v); med != 0 {
					spread = (s[len(s)-1] - s[0]) / med
				}
				rows = append(rows, row{Workload: wl, Metric: m.name, Unit: m.unit, Values: v, Median: median(v), Spread: spread})
			}
		}
	}
	doc := map[string]any{"provenance": provenance(o.seed), "sets": o.repeat, "seconds": o.seconds, "quick": o.quick, "rows": rows}
	if b, err := json.MarshalIndent(doc, "", " "); err == nil {
		path := filepath.Join("benchmarks", "e2e", "out", "ledger.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: writing %s: %v\n", path, err)
		} else {
			fmt.Printf("ledger written to %s\n", path)
		}
	}
	return status
}
