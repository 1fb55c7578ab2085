package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// TestResultSurvivesRecycledStorage: every entry point releases its engine
// as it returns, and the next engine draws the released memo store from the
// pool and overwrites it. A result the caller keeps — the fleet memo and a
// deployed decision both do — must hold none of that storage: the results
// of OptimizeBest, Exhaustive and OptimizeIncremental at copy caps 1 and 2
// are kept across two dozen searches of other sizes, sequential and at
// eight workers, and must come out with the layouts, TOC bits and metrics
// they went in with, and no incumbent evaluation left inside.
func TestResultSurvivesRecycledStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(2841))
	in := randomReplicaInput(t, rng, device.BoxHTAP(), false)
	opts := Options{RelativeSLA: 0.5}
	type snapshot struct {
		name    string
		res     *Result
		set     catalog.SetLayout
		layout  catalog.Layout
		toc     uint64
		metrics workload.Metrics
	}
	var kept []snapshot
	keep := func(name string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := res.Metrics
		m.PerQuery = slices.Clone(m.PerQuery)
		kept = append(kept, snapshot{name, res, maps.Clone(res.SetLayout), maps.Clone(res.Layout), math.Float64bits(res.TOCCents), m})
	}
	for _, cap := range []int{1, 2} {
		in.Replication = ReplicationConfig{Enabled: true, MaxReplicas: cap}
		res, err := OptimizeBest(in, opts)
		keep(fmt.Sprintf("cap%d/best", cap), res, err)
		res, err = Exhaustive(in, opts)
		keep(fmt.Sprintf("cap%d/exhaustive", cap), res, err)
		seed := catalog.NewUniformSetLayout(in.Cat, device.Singleton(in.Box.Cheapest().Class))
		res, err = OptimizeIncremental(in, IncrementalOptions{Options: opts, Seed: seed})
		keep(fmt.Sprintf("cap%d/incremental", cap), res, err)
	}

	boxes := []func() *device.Box{device.Box1, device.Box2, device.BoxHTAP}
	for i := 0; i < 24; i++ {
		other := randomReplicaInput(t, rng, boxes[i%len(boxes)](), i%2 == 1)
		other.Workers = 1 + 7*(i/12)
		other.Replication = ReplicationConfig{Enabled: true, MaxReplicas: 1 + i%2}
		if _, err := OptimizeBest(other, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := Exhaustive(other, opts); err != nil {
			t.Fatal(err)
		}
	}

	for _, k := range kept {
		if !k.res.best.Compact.IsZero() {
			t.Errorf("%s: the result still holds its engine's memo storage", k.name)
		}
		if !reflect.DeepEqual(k.res.SetLayout, k.set) || !reflect.DeepEqual(k.res.Layout, k.layout) {
			t.Errorf("%s: layout changed to %v (%v), was %v (%v)", k.name, k.res.SetLayout, k.res.Layout, k.set, k.layout)
		}
		if math.Float64bits(k.res.TOCCents) != k.toc || !reflect.DeepEqual(k.res.Metrics, k.metrics) {
			t.Errorf("%s: TOC %v and metrics %+v changed, were %v and %+v", k.name, k.res.TOCCents, k.res.Metrics, math.Float64frombits(k.toc), k.metrics)
		}
	}
}
