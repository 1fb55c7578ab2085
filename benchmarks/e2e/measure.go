package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is what a measured region cost the process: wall time, user plus
// system CPU time, and heap bytes and objects allocated.
type usage struct {
	wall   time.Duration
	cpu    time.Duration
	bytes  uint64
	allocs uint64
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measured runs fn and reports what it cost. ReadMemStats stops the world,
// so it brackets the region and is never called inside it.
func measured(fn func()) usage {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	return usage{wall: wall, cpu: cpu, bytes: after.TotalAlloc - before.TotalAlloc, allocs: after.Mallocs - before.Mallocs}
}

// peakRSSMB returns the process's resident-set high-water mark in MB:
// VmHWM from /proc/self/status, falling back to getrusage's ru_maxrss
// (kilobytes on Linux) where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// provenance describes where and on what a result was measured; every
// output file carries it.
func provenance(seed int64) map[string]any {
	return map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
		"seed":       seed,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" when
// the file or the field is absent).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// gitCommit names the measured commit: the BENCH_COMMIT environment
// variable when set, else git's HEAD, else "unknown" — the driver measures
// an exported tree that is not a git repository.
func gitCommit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
