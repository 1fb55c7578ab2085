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

	single, err := OptimizeBest(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Feasible {
		t.Fatal("single placement must be feasible (all on H-SSD)")
	}
	repl, err := OptimizeReplicated(in, opts)
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
	if repl.Result.Layout != nil {
		t.Fatal("a genuinely replicated recommendation must not collapse to a single-class layout")
	}

	// The map form agrees with the compiled form bit for bit.
	mapIn := in
	mapIn.NoCompile = true
	mrepl, err := OptimizeReplicated(mapIn, opts)
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
	ex, err := ExhaustiveReplicated(in, opts)
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
	s1, err := OptimizeBest(b1, opts)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := OptimizeReplicated(b1, opts)
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
	plain, err := ExhaustiveReplicated(plainIn, opts)
	if err != nil {
		t.Fatal(err)
	}
	prunedIn := in
	prunedIn.Workers = 1
	pruned, err := ExhaustiveReplicated(prunedIn, opts)
	if err != nil {
		t.Fatal(err)
	}
	parIn := in
	parIn.Workers = 4
	par, err := ExhaustiveReplicated(parIn, opts)
	if err != nil {
		t.Fatal(err)
	}

	ref := odometer(t, in, opts, 2, in.allObjects(), nil)
	requireSameOutcome(t, "plain-vs-odometer", plain.Result, ref.Result)
	requireSameOutcome(t, "pruned-vs-plain", pruned.Result, plain.Result)
	requireSameOutcome(t, "parallel-vs-plain", par.Result, plain.Result)
	if !plain.SetLayout.Equal(ref.SetLayout) || !pruned.SetLayout.Equal(plain.SetLayout) || !par.SetLayout.Equal(plain.SetLayout) {
		t.Fatal("replica set layouts differ across search variants")
	}
	if pruned.Search.Candidates >= plain.Search.Candidates {
		t.Fatalf("pruning evaluated %d candidates, plain %d — no work saved",
			pruned.Search.Candidates, plain.Search.Candidates)
	}

	// The exhaustive optimum bounds the heuristic from below.
	heur, err := OptimizeReplicated(in, opts)
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
	pinned, err := OptimizeReplicatedIncremental(in, ReplicatedIncrementalOptions{
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
	shifted, err := OptimizeReplicatedIncremental(in, ReplicatedIncrementalOptions{Options: opts, Seed: seed})
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
	reverted, err := OptimizeReplicatedIncremental(lookupOnly, ReplicatedIncrementalOptions{
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
	res, err := OptimizeReplicatedPartitioned(in, pt, Options{RelativeSLA: 0.3})
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

// TestReplicatedErrorPaths: the replicated entry points refuse what they
// cannot price or search — and only that: over the map form (NoCompile)
// the replicated enumeration still answers, unpruned.
func TestReplicatedErrorPaths(t *testing.T) {
	f := newCompiledFix(t)
	in := f.input()
	opts := Options{RelativeSLA: 0.5}

	custom := in
	custom.LayoutCost = func(catalog.ClassSpace) (float64, error) { return 0, nil }
	if _, err := OptimizeReplicated(custom, opts); err == nil || !strings.Contains(err.Error(), "linear cost model") {
		t.Fatalf("custom cost model must be refused, got %v", err)
	}

	plan := in
	plan.Est = &planOnlyEst{}
	if _, err := OptimizeReplicated(plan, opts); err == nil || !strings.Contains(err.Error(), "no replica form") {
		t.Fatalf("plan-only estimator must be refused, got %v", err)
	}

	if _, err := OptimizeReplicatedIncremental(in, ReplicatedIncrementalOptions{Options: opts}); err == nil ||
		!strings.Contains(err.Error(), "seed layout") {
		t.Fatalf("incremental without a seed must error, got %v", err)
	}

	noCompile := in
	noCompile.NoCompile = true
	mapped, err := ExhaustiveReplicated(noCompile, opts)
	if err != nil {
		t.Fatalf("map-only replicated exhaustive must answer, got %v", err)
	}
	compiled, err := ExhaustiveReplicated(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutcome(t, "map-vs-compiled", mapped.Result, compiled.Result)
	if !mapped.SetLayout.Equal(compiled.SetLayout) {
		t.Fatal("map and compiled replicated exhaustive place different sets")
	}
}

// planOnlyEst is an estimator kind without a replica form.
type planOnlyEst struct{}

func (*planOnlyEst) Estimate(catalog.Layout) (workload.Metrics, error) {
	return workload.Metrics{}, nil
}
