package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestQuickAllWorkloads runs every workload end to end at smoke-test scale
// — set-up, warm-up, window, validity checks, traced replay — so the
// harness cannot rot unnoticed, and holds each run to the result-line
// contract: correct, every end-to-end metric non-zero, every per-layer
// metric present.
func TestQuickAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			cfg := runConfig{
				workload: wl,
				seed:     1,
				warmup:   100 * time.Millisecond,
				window:   500 * time.Millisecond,
				replay:   200 * time.Millisecond,
				quick:    true,
				nproc:    runtime.NumCPU(),
				outDir:   filepath.Join(dir, "out"),
				tmpDir:   filepath.Join(dir, "tmp"),
			}
			if wl == wlOfflineTPCH || wl == wlOfflineTPCC {
				cfg.warmup = 0
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Errorf("failed check: %s", p)
			}
			if !res.correct() || res.attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.correct(), res.attempted, res.failed)
			}
			for _, m := range endToEndMetrics {
				if v := res.endToEnd[m.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, must be positive", m.name, v)
				}
			}
			if v := res.perLayer["trace.spans"]; !(v > 0) {
				t.Errorf("traced replay recorded %v spans", v)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+wl+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			known := map[string]bool{}
			for _, m := range perLayerMetrics {
				known[m.name] = true
			}
			for name := range res.perLayer {
				if !known[name] {
					t.Errorf("per-layer metric %q is reported but not declared in perLayerMetrics", name)
				}
			}
		})
	}
}

// TestBenchmarkFileMatchesTheCommand keeps BENCHMARK.json and the command
// from drifting apart: same workloads, same metrics, same units.
func TestBenchmarkFileMatchesTheCommand(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the command %q", i, w.Name, workloadNames[i])
		}
		if _, ok := tailWanted[w.Name]; !ok {
			t.Errorf("workload %q has no fixed tail percentile", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command reports %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %s [%s], the command %s [%s]", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command reports %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s], the command %s [%s]", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
}
