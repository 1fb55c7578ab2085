// Compiled estimators: the allocation-free evaluation path behind the
// search engine's one estimator contract, CompactEstimator. Profile-driven
// estimators (ObservedEstimator, ProfileEstimator) compile their profiles
// into dense per-(object, class-set) time tables (iosim.CompiledProfile) for
// the digit alphabet the search will enumerate, so a candidate layout is
// estimated by flat array sums, and a candidate differing from an evaluated
// base by a few object moves is re-estimated in O(moves) from the base's
// Metrics alone. Single-copy search is the singleton alphabet of the same
// tables, not a second form.
//
// Every compiled path reuses the exact arithmetic of its map-form sibling
// — integer I/O-time sums regrouped associatively, floats derived through
// the same shared expression — so results are bit-identical. The plan-aware
// DSS estimator compiles too (dss.go), in its own way: its compiled form
// reads placements from the compact layout's bytes and re-looks-up only the
// queries a move can touch, over the same per-query cost tables its map
// form reads.
//
// The search engine takes compact estimators only. An estimator without a
// compiled form for the search's alphabet — one wrapped in another
// Estimator (which hides CompileFor), one that declines the alphabet (the
// plan-aware estimator has no replica routing, so it declines multi-member
// sets), an external one — reaches it through MapForm, as every estimator
// does under core's Input.NoCompile, the oracle of the parity tests. The
// adapter costs speed, not answers.
package workload

import (
	"fmt"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
)

// ObjectMove describes one object changing placement — the unit of delta
// evaluation and of migration plans. A move between single copies has
// singleton sets on both sides; the empty From marks an object that was not
// placed before.
type ObjectMove struct {
	Obj      catalog.ObjectID
	From, To device.ClassSet
}

// SetEstimator is implemented by estimators that can price a layout whose
// units hold copies on several classes: reads route to each unit's best
// member per I/O type, writes land on every member. The profile-driven
// estimators do; the plan-aware estimator plans against single-class
// placements and has no per-copy routing model.
type SetEstimator interface {
	Estimator
	// EstimateSet must return exactly what Estimate returns when every set
	// of l is a singleton.
	EstimateSet(l catalog.SetLayout) (Metrics, error)
}

// EstimateSet prices a class-set layout with any estimator: through its
// replica form when it has one, and otherwise through the layout's
// single-class view — where a genuinely replicated layout is an error.
func EstimateSet(est Estimator, l catalog.SetLayout) (Metrics, error) {
	if se, ok := est.(SetEstimator); ok {
		return se.EstimateSet(l)
	}
	single, ok := l.SingleLayout()
	if !ok {
		return Metrics{}, fmt.Errorf("workload: estimator %T has no replica form and cannot price a multi-copy layout", est)
	}
	return est.Estimate(single)
}

// NewSetEstimator returns est's replica form as a plain Estimator that
// reads each catalog.Layout value as a device.ClassSet mask — the
// independent map-path reference external checkers price replicated answers
// with. ok=false when the estimator kind has no replica form.
func NewSetEstimator(est Estimator) (Estimator, bool) {
	se, ok := est.(SetEstimator)
	if !ok {
		return nil, false
	}
	return maskValued{se}, true
}

// maskValued adapts a SetEstimator to mask-valued catalog.Layouts.
type maskValued struct{ est SetEstimator }

func (e maskValued) Estimate(l catalog.Layout) (Metrics, error) {
	sl := make(catalog.SetLayout, len(l))
	for id, v := range l {
		sl[id] = device.ClassSet(v)
	}
	return e.est.EstimateSet(sl)
}

// CompactEstimator is the search engine's estimator contract: a compact
// layout estimated directly, without materializing the map form, and a
// moved one re-estimated from its base's Metrics alone (per-query times are
// integers; the throughput form keeps its exact profile I/O time in them).
type CompactEstimator interface {
	Estimator
	// EstimateCompact must return exactly what Estimate returns for the
	// layout's map form.
	EstimateCompact(cl catalog.CompactLayout) (Metrics, error)
	// EstimateDelta estimates cl, which differs by moves from a layout this
	// estimator evaluated to base. The result must be bit-identical to
	// EstimateCompact(cl); an estimator without an O(moves) form, or handed
	// a base it cannot delta from, estimates cl in full.
	EstimateDelta(cl catalog.CompactLayout, base Metrics, moves []ObjectMove) (Metrics, error)
}

// ElapsedDecomposable is implemented by compiled estimators whose predicted
// Elapsed separates exactly into a layout-independent remainder plus one
// additive per-(object, class-set) term per placed object:
//
//	Elapsed(L) = fixed + sum over objects o of table[o][L(o)]
//
// Durations are integers, so the sum regroups exactly; the decomposition is
// the raw material of the branch-and-bound search's admissible per-unit
// bound — each digit's entry is the unit's exact contribution on that set,
// so the minimum over the alphabet is a true per-unit floor with no
// separate argument for reads and writes. AccumulateElapsedTable adds each
// object's term on each digit of alphabet into table (dense,
// catalog.DenseIndex(id)*len(alphabet) + position; the caller zeroes it)
// and returns the fixed remainder. ok=false declines — the objective does
// not decompose this way (throughput estimators, whose cost is C(L)/T) —
// and the caller must not bound.
type ElapsedDecomposable interface {
	AccumulateElapsedTable(table []time.Duration, alphabet []device.ClassSet) (fixed time.Duration, ok bool)
}

// PlacementSignable is implemented by compiled estimators that can emit a
// per-object placement signature: two objects with equal signatures are
// interchangeable under the estimator — swapping their placements leaves
// every estimate (all metrics fields) unchanged for every layout over the
// compiled alphabet. Per-set rows are required — per-class rows are not
// enough, because best-replica read routing mixes classes within a set
// differently for different I/O-type mixes. Combined with equal sizes this
// is the dominance relation the branch-and-bound search collapses symmetric
// units with. AppendPlacementSignature appends object id's signature bytes
// to dst and returns the extended slice; the encoding is fixed-width per
// estimator, so equal byte strings mean equal signatures.
type PlacementSignable interface {
	AppendPlacementSignature(dst []byte, id catalog.ObjectID) []byte
}

// Compilable is implemented by estimators that can build a compiled
// (CompactEstimator) equivalent of themselves for a catalog and a digit
// alphabet.
type Compilable interface {
	// CompileFor returns an estimator whose Estimate matches the receiver's
	// bit for bit and which additionally implements CompactEstimator over
	// compact layouts drawn from alphabet. An empty alphabet selects
	// single-copy placement on the estimator's box.
	CompileFor(cat *catalog.Catalog, alphabet []device.ClassSet) (Estimator, error)
}

// CompileEstimator returns the compiled form of est when it supports one,
// and est unchanged otherwise (including on compile errors — MapForm
// always works). The tables are built for the given digit alphabet — the
// class sets the search will enumerate — and for single-copy placement on
// the estimator's box when none is given. It is idempotent: an estimator
// already compiled for this catalog and covering the alphabet passes
// through, so a caller that compiles ahead of the search (one compile
// shared by a provisioning sweep's candidates) is not compiled again.
func CompileEstimator(est Estimator, cat *catalog.Catalog, alphabet ...device.ClassSet) Estimator {
	if c, ok := est.(Compilable); ok {
		if ce, err := c.CompileFor(cat, alphabet); err == nil {
			return ce
		}
	}
	return est
}

// MapForm adapts any estimator to the compact form the search engine takes:
// a compact layout is estimated through the estimator's own EstimateSet (or
// Estimate, for a single-copy layout of an estimator without a replica form)
// on the layout's map form. Its delta is a full estimate, and it offers no
// elapsed decomposition or placement signature, so a search over it
// estimates every candidate in full and enumerates without pruning — the
// same candidates, the same answers, each paid for in full.
func MapForm(est Estimator) CompactEstimator { return mapForm{est} }

// mapForm embeds the interface, so it exposes Estimate and nothing else of
// the estimator it adapts.
type mapForm struct{ Estimator }

// EstimateCompact implements CompactEstimator.
func (e mapForm) EstimateCompact(cl catalog.CompactLayout) (Metrics, error) {
	return EstimateSet(e.Estimator, cl.ToSetLayout())
}

// EstimateDelta implements CompactEstimator by estimating cl in full.
func (e mapForm) EstimateDelta(cl catalog.CompactLayout, _ Metrics, _ []ObjectMove) (Metrics, error) {
	return e.EstimateCompact(cl)
}

// alphabetOr resolves CompileFor's alphabet default.
func alphabetOr(alphabet []device.ClassSet, box *device.Box) []device.ClassSet {
	if len(alphabet) == 0 {
		return iosim.SingletonAlphabet(box)
	}
	return alphabet
}

// ---- ObservedEstimator (DSS per-query counts) -----------------------------

// compiledObserved is the compiled form of ObservedEstimator: one dense
// time table per observed query. The embedded source answers the map forms
// (Estimate, EstimateSet) and PartitionFor, byte for byte.
type compiledObserved struct {
	*ObservedEstimator
	n       int // object count of the catalog compiled for
	queries []*iosim.CompiledProfile
	cpu     []time.Duration
}

// CompileFor implements Compilable.
func (e *ObservedEstimator) CompileFor(cat *catalog.Catalog, alphabet []device.ClassSet) (Estimator, error) {
	alphabet = alphabetOr(alphabet, e.Box)
	c := &compiledObserved{ObservedEstimator: e, n: cat.NumObjects()}
	for _, q := range e.PerQuery {
		c.queries = append(c.queries, iosim.CompileProfile(q.Profile, e.Box, e.Concurrency, c.n, alphabet))
		c.cpu = append(c.cpu, q.CPU)
	}
	return c, nil
}

// CompileFor implements Compilable: the receiver when it already serves the
// catalog and the alphabet, a fresh compile of its source otherwise.
func (e *compiledObserved) CompileFor(cat *catalog.Catalog, alphabet []device.ClassSet) (Estimator, error) {
	if e.n == cat.NumObjects() && (len(e.queries) == 0 || e.queries[0].Covers(alphabetOr(alphabet, e.Box))) {
		return e, nil
	}
	return e.ObservedEstimator.CompileFor(cat, alphabet)
}

// EstimateCompact implements CompactEstimator.
func (e *compiledObserved) EstimateCompact(cl catalog.CompactLayout) (Metrics, error) {
	m := Metrics{PerQuery: make([]time.Duration, 0, len(e.queries))}
	for i, q := range e.queries {
		io, err := q.IOTime(cl)
		if err != nil {
			return Metrics{}, err
		}
		t := io + e.cpu[i]
		m.PerQuery = append(m.PerQuery, t)
		m.Elapsed += t
	}
	return m, nil
}

// EstimateDelta implements CompactEstimator: each query's base I/O time is
// PerQuery[i] - CPU[i] (exact — durations are integers), adjusted by the
// moves' per-query time deltas.
func (e *compiledObserved) EstimateDelta(cl catalog.CompactLayout, base Metrics, moves []ObjectMove) (Metrics, error) {
	if len(base.PerQuery) != len(e.queries) {
		return e.EstimateCompact(cl)
	}
	m := Metrics{PerQuery: make([]time.Duration, 0, len(e.queries))}
	for i, q := range e.queries {
		io := base.PerQuery[i] - e.cpu[i]
		for _, mv := range moves {
			d, err := q.DeltaIOTime(mv.Obj, mv.From, mv.To)
			if err != nil {
				return Metrics{}, err
			}
			io += d
		}
		t := io + e.cpu[i]
		m.PerQuery = append(m.PerQuery, t)
		m.Elapsed += t
	}
	return m, nil
}

// AccumulateElapsedTable implements ElapsedDecomposable: Elapsed is the sum
// of per-query I/O times plus CPU, and each query's I/O time is its compiled
// profile's per-(object, class-set) row sum — so the union table over all
// queries decomposes Elapsed exactly (integer Duration sums regroup freely).
func (e *compiledObserved) AccumulateElapsedTable(table []time.Duration, alphabet []device.ClassSet) (time.Duration, bool) {
	var fixed time.Duration
	for i, q := range e.queries {
		q.AccumulateTimes(table, alphabet)
		fixed += e.cpu[i]
	}
	return fixed, true
}

// AppendPlacementSignature implements PlacementSignable: the concatenated
// per-query time rows. Per-query rows (not the union) are required — two
// objects with equal union rows but different per-query splits would swap
// PerQuery entries, which is observable in Metrics.
func (e *compiledObserved) AppendPlacementSignature(dst []byte, id catalog.ObjectID) []byte {
	for _, q := range e.queries {
		dst = q.AppendRow(dst, id)
	}
	return dst
}

// ---- ProfileEstimator (OLTP test-run profile) -----------------------------

// compiledThroughput is the compiled form of ProfileEstimator. The
// embedded source answers the map forms (Estimate, EstimateSet) and
// PartitionFor, byte for byte.
type compiledThroughput struct {
	*ProfileEstimator
	n  int // object count of the catalog compiled for
	cp *iosim.CompiledProfile
}

// CompileFor implements Compilable.
func (e *ProfileEstimator) CompileFor(cat *catalog.Catalog, alphabet []device.ClassSet) (Estimator, error) {
	n := cat.NumObjects()
	return &compiledThroughput{
		ProfileEstimator: e,
		n:                n,
		cp:               iosim.CompileProfile(e.Profile, e.Box, e.Concurrency, n, alphabetOr(alphabet, e.Box)),
	}, nil
}

// CompileFor implements Compilable: the receiver when it already serves the
// catalog and the alphabet, a fresh compile of its source otherwise.
func (e *compiledThroughput) CompileFor(cat *catalog.Catalog, alphabet []device.ClassSet) (Estimator, error) {
	if e.n == cat.NumObjects() && e.cp.Covers(alphabetOr(alphabet, e.Box)) {
		return e, nil
	}
	return e.ProfileEstimator.CompileFor(cat, alphabet)
}

// EstimateCompact implements CompactEstimator.
func (e *compiledThroughput) EstimateCompact(cl catalog.CompactLayout) (Metrics, error) {
	return e.metricsFromIOTime(e.cp.IOTime(cl))
}

// AccumulateElapsedTable implements ElapsedDecomposable by declining:
// throughput metrics derive Elapsed through float division, and the TOC
// objective is C(L)/T — an elapsed-time floor cannot bound it.
func (e *compiledThroughput) AccumulateElapsedTable([]time.Duration, []device.ClassSet) (time.Duration, bool) {
	return 0, false
}

// AppendPlacementSignature implements PlacementSignable: the profile's time
// row. Equal rows make the profile I/O time — the only layout-dependent
// input to the throughput metrics — invariant under a swap.
func (e *compiledThroughput) AppendPlacementSignature(dst []byte, id catalog.ObjectID) []byte {
	return e.cp.AppendRow(dst, id)
}

// EstimateDelta implements CompactEstimator: the base's exact profile I/O
// time (Metrics.ioTime — the elapsed and throughput floats are lossy)
// adjusted by the moves' time deltas. A base with no recorded I/O time (no
// throughput, or metrics built outside this package) is not one of this
// estimator's evaluations, and cl is estimated in full.
func (e *compiledThroughput) EstimateDelta(cl catalog.CompactLayout, base Metrics, moves []ObjectMove) (Metrics, error) {
	if base.ioTime <= 0 {
		return e.EstimateCompact(cl)
	}
	io := base.ioTime
	for _, mv := range moves {
		d, err := e.cp.DeltaIOTime(mv.Obj, mv.From, mv.To)
		if err != nil {
			return Metrics{}, err
		}
		io += d
	}
	return e.metricsFromIOTime(io, nil)
}
