package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/search"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// randomReplicaInput builds a random catalog, profile, and estimator over
// the given box for the golden characterisation test (TestSearchGolden).
// oltp selects the throughput objective.
func randomReplicaInput(t *testing.T, rng *rand.Rand, box *device.Box, oltp bool) Input {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	prof := iosim.NewProfile()
	nTabs := 2 + rng.Intn(4)
	for i := 0; i < nTabs; i++ {
		tab, err := cat.CreateTable(string(rune('a'+i)), sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		cat.SetSize(tab.ID, int64(1e8+rng.Float64()*2e10))
		if rng.Intn(4) > 0 {
			prof.Add(tab.ID, device.SeqRead, float64(rng.Intn(2_000_000)))
		}
		if rng.Intn(4) > 0 {
			prof.Add(tab.ID, device.RandRead, float64(rng.Intn(300_000)))
		}
		if rng.Intn(2) > 0 {
			prof.Add(tab.ID, device.RandWrite, float64(rng.Intn(20_000)))
		}
		if rng.Intn(3) == 0 {
			prof.Add(tab.ID, device.SeqWrite, float64(rng.Intn(50_000)))
		}
	}
	ps := NewProfileSet()
	ps.SetSingle(prof)
	in := Input{Cat: cat, Box: box, Profiles: ps, Concurrency: 1 + rng.Intn(64)}
	if oltp {
		est, err := workload.NewProfileEstimator(box, in.Concurrency, prof,
			time.Duration(1+rng.Intn(2000))*time.Millisecond,
			workload.RunStats{Txns: int64(1000 + rng.Intn(20000)), Elapsed: time.Duration(1+rng.Intn(180)) * time.Second},
			catalog.NewUniformLayout(cat, device.HSSD))
		if err != nil {
			t.Fatal(err)
		}
		in.Est = est
	} else {
		in.Est = &workload.ObservedEstimator{Box: box, Concurrency: in.Concurrency,
			PerQuery: []workload.QueryObservation{{Profile: prof, CPU: time.Duration(rng.Intn(int(time.Second)))}}}
	}
	return in
}

// htapScanLookupInput is the replication showcase: one 40 GB table (plus
// its 2 GB pkey) serving a scan query and a point-lookup query on the HTAP
// box, whose wide stripe outruns the SSDs sequentially while only flash
// meets the lookup SLA. The feasible single placements keep everything on
// the H-SSD; a scan copy on the stripe strictly improves TOC.
func htapScanLookupInput(t *testing.T) Input {
	t.Helper()
	cat := catalog.New()
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt})
	tab, err := cat.CreateTable("orders", sch, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cat.CreateIndex("orders_pkey", tab.ID, []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetSize(tab.ID, 40e9)
	cat.SetSize(ix.ID, 2e9)
	scan := iosim.NewProfile()
	scan.Add(tab.ID, device.SeqRead, 5e6)
	lookup := iosim.NewProfile()
	lookup.Add(tab.ID, device.RandRead, 150_000)
	lookup.Add(ix.ID, device.RandRead, 50_000)
	box := device.BoxHTAP()
	merged := iosim.NewProfile()
	merged.Add(tab.ID, device.SeqRead, 5e6)
	merged.Add(tab.ID, device.RandRead, 150_000)
	merged.Add(ix.ID, device.RandRead, 50_000)
	ps := NewProfileSet()
	ps.SetSingle(merged)
	return Input{
		Cat: cat, Box: box, Profiles: ps, Concurrency: 1,
		Est: &workload.ObservedEstimator{Box: box, Concurrency: 1,
			PerQuery: []workload.QueryObservation{{Profile: scan}, {Profile: lookup}}},
		Replication: ReplicationConfig{Enabled: true, MaxReplicas: 2},
	}
}

// TestReplicationBeatsSingleOnHTAPBox: on hardware whose read-latency order
// is not total, the replicated search strictly beats single placement under
// a mixed scan+lookup SLA; the exhaustive replicated optimum confirms the
// heuristic's winner is optimal. On the paper's Box 1 (totally ordered read
// latencies) the same search correctly refuses to replicate.
func TestReplicationBeatsSingleOnHTAPBox(t *testing.T) {
	in := htapScanLookupInput(t)
	opts := Options{RelativeSLA: 0.5}
	singleIn := in
	singleIn.Replication = ReplicationConfig{}

	single, err := OptimizeBest(singleIn, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Feasible {
		t.Fatal("single placement must be feasible (all on H-SSD)")
	}
	repl, err := OptimizeBest(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !repl.Feasible {
		t.Fatal("replicated search must be feasible")
	}
	if repl.MaxCopies() < 2 {
		t.Fatalf("replicated search placed no second copy:\n%s", repl.SetLayout.String(in.Cat))
	}
	if repl.TOCCents >= single.TOCCents {
		t.Fatalf("replication did not beat single placement: %v >= %v", repl.TOCCents, single.TOCCents)
	}
	if repl.Layout != nil {
		t.Fatal("a genuinely replicated recommendation must not collapse to a single-class layout")
	}

	// The map form agrees with the compiled form bit for bit.
	mapIn := in
	mapIn.NoCompile = true
	mrepl, err := OptimizeBest(mapIn, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !mrepl.SetLayout.Equal(repl.SetLayout) {
		t.Fatalf("map and compiled replica layouts differ:\n%svs\n%s",
			mrepl.SetLayout.String(in.Cat), repl.SetLayout.String(in.Cat))
	}
	if math.Float64bits(mrepl.TOCCents) != math.Float64bits(repl.TOCCents) {
		t.Fatalf("map TOC %v != compiled TOC %v", mrepl.TOCCents, repl.TOCCents)
	}

	// The exhaustive replicated optimum is no worse than the heuristic and
	// also replicates.
	ex, err := Exhaustive(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Feasible || ex.TOCCents > repl.TOCCents {
		t.Fatalf("exhaustive optimum %v worse than heuristic %v", ex.TOCCents, repl.TOCCents)
	}
	if ex.MaxCopies() < 2 {
		t.Fatal("exhaustive replicated optimum should hold a second copy")
	}

	// On Box 1 the H-SSD is fastest at every read pattern, so replication
	// has nothing to win: the replicated search must tie OptimizeBest with
	// single copies everywhere.
	b1 := in
	b1.Box = device.Box1()
	b1.Est = &workload.ObservedEstimator{Box: b1.Box, Concurrency: 1,
		PerQuery: in.Est.(*workload.ObservedEstimator).PerQuery}
	r1, err := OptimizeBest(b1, opts)
	if err != nil {
		t.Fatal(err)
	}
	b1.Replication = ReplicationConfig{}
	s1, err := OptimizeBest(b1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.MaxCopies() != 1 {
		t.Fatalf("Box 1 replication should degenerate, placed %d copies", r1.MaxCopies())
	}
	if math.Float64bits(r1.TOCCents) != math.Float64bits(s1.TOCCents) {
		t.Fatalf("Box 1: replicated TOC %v != single TOC %v", r1.TOCCents, s1.TOCCents)
	}
}

// TestExhaustiveReplicatedPrunedMatchesPlain: bound pruning and dominance
// collapsing change how much of the (2^|D|)^n space is visited, never which
// replicated layout wins — the odometer, the plain enumeration
// (NoCompile), the pruned DFS, and the parallel walk all land on the same
// bits.
func TestExhaustiveReplicatedPrunedMatchesPlain(t *testing.T) {
	f := newCompiledFix(t)
	in := f.input()
	in.Replication = ReplicationConfig{Enabled: true, MaxReplicas: 2}
	opts := Options{RelativeSLA: 0.3}

	plainIn := in
	plainIn.NoCompile = true
	plainIn.Workers = 1
	plain, err := Exhaustive(plainIn, opts)
	if err != nil {
		t.Fatal(err)
	}
	prunedIn := in
	prunedIn.Workers = 1
	pruned, err := Exhaustive(prunedIn, opts)
	if err != nil {
		t.Fatal(err)
	}
	parIn := in
	parIn.Workers = 4
	par, err := Exhaustive(parIn, opts)
	if err != nil {
		t.Fatal(err)
	}

	ref := odometer(t, in, opts, 2, in.allObjects(), nil)
	requireSameOutcome(t, "plain-vs-odometer", plain, ref)
	requireSameOutcome(t, "pruned-vs-plain", pruned, plain)
	requireSameOutcome(t, "parallel-vs-plain", par, plain)
	if !plain.SetLayout.Equal(ref.SetLayout) || !pruned.SetLayout.Equal(plain.SetLayout) || !par.SetLayout.Equal(plain.SetLayout) {
		t.Fatal("replica set layouts differ across search variants")
	}
	if pruned.Search.Candidates >= plain.Search.Candidates {
		t.Fatalf("pruning evaluated %d candidates, plain %d — no work saved",
			pruned.Search.Candidates, plain.Search.Candidates)
	}

	// The exhaustive optimum bounds the heuristic from below.
	heur, err := OptimizeBest(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Feasible && heur.Feasible && plain.TOCCents > heur.TOCCents {
		t.Fatalf("exhaustive %v worse than heuristic %v", plain.TOCCents, heur.TOCCents)
	}
}

// TestReplicatedIncremental: the online re-advise path — seeded from the
// deployed replica layout, gated candidates, copies added under an HTAP
// shift and dropped when the workload reverts.
func TestReplicatedIncremental(t *testing.T) {
	in := htapScanLookupInput(t)
	opts := Options{RelativeSLA: 0.5}

	// A gate that rejects everything pins the result to the seed.
	seed := catalog.SingletonSetLayout(catalog.NewUniformLayout(in.Cat, device.HSSD))
	pinned, err := OptimizeIncremental(in, IncrementalOptions{
		Options: opts, Seed: seed,
		Accept: func(_ search.Eval, _ workload.Constraints) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pinned.SetLayout.Equal(seed) {
		t.Fatalf("rejecting gate must keep the deployed layout:\n%s", pinned.SetLayout.String(in.Cat))
	}

	// Ungated, the HTAP shift adds a scan copy on the stripe.
	shifted, err := OptimizeIncremental(in, IncrementalOptions{Options: opts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if shifted.MaxCopies() < 2 {
		t.Fatalf("incremental re-advise did not add a copy:\n%s", shifted.SetLayout.String(in.Cat))
	}

	// Revert the workload to lookups only: re-advising from the replicated
	// deployment drops the now-useless scan copy.
	lookupOnly := in
	lookupOnly.Est = &workload.ObservedEstimator{Box: in.Box, Concurrency: 1,
		PerQuery: in.Est.(*workload.ObservedEstimator).PerQuery[1:]}
	reverted, err := OptimizeIncremental(lookupOnly, IncrementalOptions{
		Options: opts, Seed: shifted.SetLayout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reverted.MaxCopies() != 1 {
		t.Fatalf("reverted workload kept %d copies:\n%s", reverted.MaxCopies(), reverted.SetLayout.String(in.Cat))
	}
}

// TestOptimizeReplicatedPartitioned: replica search at partition
// granularity on the skew fixture — units get per-extent copy sets and the
// result collapses (or not) to object granularity without error.
func TestOptimizeReplicatedPartitioned(t *testing.T) {
	box := device.BoxHTAP()
	in, fx := skewInput(t, box)
	in.Replication = ReplicationConfig{Enabled: true, MaxReplicas: 2}
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizePartitioned(in, pt, Options{RelativeSLA: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("partitioned replicated search infeasible on the skew fixture")
	}
	if len(res.SetLayout) != pt.NumUnits() {
		t.Fatalf("unit layout covers %d of %d units", len(res.SetLayout), pt.NumUnits())
	}
	for id, set := range res.SetLayout {
		if !set.Valid() {
			t.Fatalf("unit %d placed on invalid set %v", id, set)
		}
	}
}

// TestReplicatedErrorPaths: the entry points refuse, above a copy cap of
// one, what they cannot price or search — and only that: over the map form
// (NoCompile) the replicated enumeration still answers, unpruned.
func TestReplicatedErrorPaths(t *testing.T) {
	f := newCompiledFix(t)
	in := f.input()
	in.Replication = ReplicationConfig{Enabled: true}
	opts := Options{RelativeSLA: 0.5}

	custom := in
	custom.LayoutCost = func(catalog.ClassSpace) (float64, error) { return 0, nil }
	if _, err := OptimizeBest(custom, opts); err == nil || !strings.Contains(err.Error(), "linear cost model") {
		t.Fatalf("custom cost model must be refused, got %v", err)
	}

	plan := in
	plan.Est = &planOnlyEst{}
	if _, err := OptimizeBest(plan, opts); err == nil || !strings.Contains(err.Error(), "no replica form") {
		t.Fatalf("plan-only estimator must be refused, got %v", err)
	}

	if _, err := OptimizeIncremental(in, IncrementalOptions{Options: opts}); err == nil ||
		!strings.Contains(err.Error(), "seed layout") {
		t.Fatalf("incremental without a seed must error, got %v", err)
	}

	noCompile := in
	noCompile.NoCompile = true
	mapped, err := Exhaustive(noCompile, opts)
	if err != nil {
		t.Fatalf("map-only replicated exhaustive must answer, got %v", err)
	}
	compiled, err := Exhaustive(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutcome(t, "map-vs-compiled", mapped, compiled)
	if !mapped.SetLayout.Equal(compiled.SetLayout) {
		t.Fatal("map and compiled replicated exhaustive place different sets")
	}
}

// planOnlyEst is an estimator kind without a replica form.
type planOnlyEst struct{}

func (*planOnlyEst) Estimate(catalog.Layout) (workload.Metrics, error) {
	return workload.Metrics{}, nil
}

// TestCopyCapIsInput: the copy cap every entry point searches at is
// Input.Replication.Cap() and nothing else. A config that is not Enabled
// answers bit for bit like the zero config whatever its MaxReplicas, an
// enabled config without a cap like a cap of one copy per class, and the
// OptimizeReplicated forward like OptimizeBest at caps 1 and 2.
func TestCopyCapIsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	boxes := []func() *device.Box{device.Box1, device.Box2, device.BoxHTAP}
	opts := Options{RelativeSLA: 0.5}
	replicates := false
	for trial := 0; trial < 6; trial++ {
		in := randomReplicaInput(t, rng, boxes[trial%len(boxes)](), trial%2 == 1)
		seed := catalog.NewUniformSetLayout(in.Cat, device.Singleton(in.Box.Cheapest().Class))
		stats := catalog.ExtentStats{ByObject: make(map[catalog.ObjectID][]catalog.Extent)}
		for _, o := range in.Cat.Objects() {
			pages := (o.SizeBytes + catalog.DefaultPageBytes - 1) / catalog.DefaultPageBytes
			for e := 0; e < 3; e++ {
				stats.ByObject[o.ID] = append(stats.ByObject[o.ID],
					catalog.Extent{Pages: pages/3 + 1, Count: float64(rng.Intn(50_000))})
			}
		}
		pt, err := catalog.BuildPartitioning(in.Cat, stats, catalog.PartitionOptions{MaxUnitsPerObject: 2})
		if err != nil {
			t.Fatal(err)
		}
		answers := func(r ReplicationConfig) map[string]string {
			t.Helper()
			in := in
			in.Replication = r
			out := map[string]string{}
			record := func(what string, res *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("trial %d %+v %s: %v", trial, r, what, err)
				}
				out[what] = goldenLine("", res.SetLayout, res)
			}
			res, err := OptimizeBest(in, opts)
			record("best", res, err)
			res, err = OptimizeIncremental(in, IncrementalOptions{Options: opts, Seed: seed})
			record("incremental", res, err)
			res, err = Exhaustive(in, opts)
			record("exhaustive", res, err)
			pres, err := OptimizePartitioned(in, pt, opts)
			if err == nil {
				res = pres.Result
			}
			record("partitioned", res, err)
			fwd, err := OptimizeReplicated(in, opts)
			if err == nil {
				res = fwd.Result
			}
			record("forward", res, err)
			return out
		}
		for _, c := range []struct {
			what      string
			got, want ReplicationConfig
		}{
			{"disabled", ReplicationConfig{MaxReplicas: 2}, ReplicationConfig{}},
			{"uncapped", ReplicationConfig{Enabled: true}, ReplicationConfig{Enabled: true, MaxReplicas: device.NumClasses}},
		} {
			got, want := answers(c.got), answers(c.want)
			for what, w := range want {
				if got[what] != w {
					t.Errorf("trial %d %s/%s: %+v answered %s\n  %+v answered %s", trial, c.what, what, c.got, got[what], c.want, w)
				}
			}
		}
		var byCap [3]map[string]string
		for _, cap := range []int{1, 2} {
			a := answers(ReplicationConfig{Enabled: true, MaxReplicas: cap})
			if a["forward"] != a["best"] {
				t.Errorf("trial %d cap %d: OptimizeReplicated answered %s\n  OptimizeBest answered %s", trial, cap, a["forward"], a["best"])
			}
			byCap[cap] = a
		}
		for what, a := range byCap[1] {
			replicates = replicates || byCap[2][what] != a
		}
	}
	// The disabled config must have had copies to ignore.
	if !replicates {
		t.Fatal("no trial searched differently at caps 1 and 2")
	}
}
