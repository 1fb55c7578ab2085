package search

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// Space is an assignment space for exhaustive enumeration: every Free
// object ranges over Digits — the alphabet of class sets a unit may be
// placed on, the box's singletons for single-copy search — while Base pins
// everything else. Candidates are generated in odometer order — Free[0]
// cycles fastest — matching the paper's M^N enumeration.
type Space struct {
	Base   catalog.SetLayout
	Free   []catalog.ObjectID
	Digits []device.ClassSet
}

// incumbent tracks the best feasible evaluation with the deterministic
// tie-break: lower TOC wins, equal TOC resolves to the lower enumeration
// index (the sequential first-found-wins rule).
type incumbent struct {
	mu  sync.Mutex
	ok  bool
	idx int
	ev  Eval
}

func (b *incumbent) offer(idx int, ev Eval) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ok || ev.TOCCents < b.ev.TOCCents || (ev.TOCCents == b.ev.TOCCents && idx < b.idx) {
		b.ok, b.idx, b.ev = true, idx, ev
	}
}

func (b *incumbent) get() (Eval, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ev, b.ok
}

var errStopped = errors.New("search: enumeration stopped")

// enumerate walks the space depth-first in odometer order and calls emit
// with each candidate (a fresh clone) and its enumeration index. It returns
// how many candidates it emitted.
func enumerate(sp Space, emit func(idx int, l catalog.SetLayout) error) (int, error) {
	partial := make(catalog.SetLayout)
	if sp.Base != nil {
		partial = sp.Base.Clone()
	}
	idx := 0
	var rec func(i int) error
	rec = func(i int) error {
		if i < 0 {
			err := emit(idx, partial.Clone())
			idx++
			return err
		}
		for _, c := range sp.Digits {
			partial[sp.Free[i]] = c
			if err := rec(i - 1); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(len(sp.Free) - 1)
	return idx, err
}

// Exhaustive enumerates the whole space on the map path and returns the
// feasible evaluation with the minimum TOC (ties to the earliest candidate
// in enumeration order), whether one exists, and the enumeration's
// statistics. Every estimator this repository ships compiles — the
// plan-aware DSS estimator included, whose ExhaustiveBnB walk has neither
// bound nor dominance and so visits the same candidates — which leaves this
// walk to estimators wrapped in something that hides CompileFor, to
// alphabets an estimator declines, and to NoCompile: the unpruned reference
// ExhaustiveBnB is checked against. Candidates fan out across the engine's
// worker pool; the result is the same at any worker count.
func (e *Engine) Exhaustive(cons workload.Constraints, sp Space) (Eval, bool, EnumStats, error) {
	if len(sp.Digits) == 0 {
		return Eval{}, false, EnumStats{}, fmt.Errorf("search: exhaustive space has no classes")
	}
	size := math.Pow(float64(len(sp.Digits)), float64(len(sp.Free)))
	stats := EnumStats{SpaceSize: size, CanonicalSize: size}
	best := &incumbent{}
	workers := e.Workers()
	if workers < 2 {
		n, err := enumerate(sp, func(idx int, l catalog.SetLayout) error {
			ev, err := e.Evaluate(l)
			if err != nil {
				return err
			}
			if ev.Feasible(cons) {
				best.offer(idx, ev)
			}
			return nil
		})
		if err != nil {
			return Eval{}, false, EnumStats{}, err
		}
		stats.Candidates = n
		ev, ok := best.get()
		return ev, ok, stats, nil
	}

	type job struct {
		idx int
		l   catalog.SetLayout
	}
	jobs := make(chan job, workers*2)
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		errMu sync.Mutex
		loErr error
		loIdx = int(^uint(0) >> 1) // max int
	)
	fail := func(idx int, err error) {
		errMu.Lock()
		if err != nil && idx < loIdx {
			loIdx, loErr = idx, err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ev, err := e.Evaluate(j.l)
				if err != nil {
					fail(j.idx, err)
					continue
				}
				if ev.Feasible(cons) {
					best.offer(j.idx, ev)
				}
			}
		}()
	}
	n, genErr := enumerate(sp, func(idx int, l catalog.SetLayout) error {
		if stop.Load() {
			return errStopped
		}
		jobs <- job{idx: idx, l: l}
		return nil
	})
	close(jobs)
	wg.Wait()
	errMu.Lock()
	err := loErr
	errMu.Unlock()
	if err == nil && genErr != nil && genErr != errStopped {
		err = genErr
	}
	if err != nil {
		return Eval{}, false, EnumStats{}, err
	}
	stats.Candidates = n
	ev, ok := best.get()
	return ev, ok, stats, nil
}
