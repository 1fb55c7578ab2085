// The plan-aware DSS estimator (paper §3.5, Fig. 2's TPC-H path): a query's
// time under a candidate layout is the estimate of the plan the extended
// optimizer picks under it, so plan changes (HJ -> INLJ, seq -> index scan)
// show in the estimates. Planning every query for every candidate is what
// that costs when done literally; but a query's plan and time depend only on
// where the handful of objects it can read sit, and a search moves one group
// at a time. So the workload's queries are prepared once per Analyze
// (PreparedDSS), and the estimator keeps, per query, a table of plan times
// keyed by the classes of the query's relevant objects: an estimate sums
// table hits and plans on a miss only. The map form (Estimate) and the
// compiled form (EstimateCompact, EstimateDelta) read the same tables.
package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/iosim"
	"dotprov/internal/optimizer"
	"dotprov/internal/plan"
)

// PreparedDSS is a DSS workload's queries prepared against the statistics
// of one Analyze: validated, tables and predicates resolved, access paths
// and join predicates costed as far as no layout is involved. Planning the
// workload under many layouts — the profiling phase's baselines, the
// estimator's candidates — shares that work. It is stale once the engine
// re-analyzes (or DDL/DML invalidates the statistics); planning through a
// stale PreparedDSS is an error, never an answer from old statistics.
type PreparedDSS struct {
	db      *engine.DB
	opt     *optimizer.Optimizer
	queries []*optimizer.Prepared
	// errs[i] is the error preparing query i reported (a malformed query);
	// it surfaces when that query's turn comes, as it did when every plan
	// call validated its query.
	errs []error
}

// Prepare prepares the workload's queries against the engine's current
// statistics. It fails while there are none (Analyze must run first).
func (w *DSS) Prepare(db *engine.DB) (*PreparedDSS, error) {
	opt, err := db.Planner()
	if err != nil {
		return nil, err
	}
	pw := &PreparedDSS{db: db, opt: opt,
		queries: make([]*optimizer.Prepared, len(w.Queries)), errs: make([]error, len(w.Queries))}
	for i, q := range w.Queries {
		pw.queries[i], pw.errs[i] = opt.Prepare(q)
	}
	return pw, nil
}

// current reports the error planning through pw must return instead of a
// plan: the engine's statistics are gone, or newer than pw.
func (pw *PreparedDSS) current() error {
	opt, err := pw.db.Planner()
	if err != nil {
		return err
	}
	if opt != pw.opt {
		return fmt.Errorf("workload: prepared workload is stale: the engine was re-analyzed since Prepare")
	}
	return nil
}

// Len returns the number of queries.
func (pw *PreparedDSS) Len() int { return len(pw.queries) }

// Plan plans query i under a hypothetical layout, exactly as
// engine.PlanUnder would.
func (pw *PreparedDSS) Plan(i int, l catalog.Layout) (*plan.Plan, error) {
	if err := pw.current(); err != nil {
		return nil, err
	}
	return pw.plan(i, &placement{l: l})
}

// plan plans query i under v.
func (pw *PreparedDSS) plan(i int, v *placement) (*plan.Plan, error) {
	var buf [16]device.Class
	classes, err := pw.placements(i, v, buf[:0])
	if err != nil {
		return nil, err
	}
	return pw.queries[i].Plan(classes)
}

// placements reads the classes of query i's objects from v, reporting what
// planning the query under that layout would: the query's own preparation
// error first, then the first object the layout cannot serve.
func (pw *PreparedDSS) placements(i int, v *placement, dst []device.Class) ([]device.Class, error) {
	if pw.errs[i] != nil {
		return nil, pw.errs[i]
	}
	classes, err := pw.queries[i].Placements(dst, v.classOf)
	if v.multi != nil {
		return nil, v.multi
	}
	return classes, err
}

// EstimateProfile returns the per-object I/O profile the optimizer predicts
// for the whole workload under a layout (the profiling-phase building block
// for baseline layouts, paper §3.4).
func (pw *PreparedDSS) EstimateProfile(l catalog.Layout) (iosim.Profile, error) {
	if err := pw.current(); err != nil {
		return nil, err
	}
	total := iosim.NewProfile()
	v := &placement{l: l}
	for i := range pw.queries {
		pl, err := pw.plan(i, v)
		if err != nil {
			return nil, err
		}
		total.Merge(pl.Est.Profile)
	}
	return total, nil
}

// placement reads a candidate layout in either form: the map l, or — when l
// is nil — the compact layout cl, whose bytes are class-set masks.
type placement struct {
	l  catalog.Layout
	cl catalog.CompactLayout
	// multi records the first object read that holds more than one copy: the
	// plan-aware estimator has no per-copy routing model.
	multi error
}

// classOf returns the class an object is placed on, and whether it is
// placed (on exactly one).
func (v *placement) classOf(id catalog.ObjectID) (device.Class, bool) {
	if v.l != nil {
		cls, ok := v.l[id]
		return cls, ok
	}
	set, ok := v.cl.Get(id)
	if !ok {
		return 0, false
	}
	cls, single := set.Single()
	if !single && v.multi == nil {
		v.multi = fmt.Errorf("workload: the plan-aware estimator cannot price object %d on the multi-copy set %v", id, set)
	}
	return cls, single
}

// costTableLimit caps the plan times one estimator retains across all of
// its queries' tables (sized like search.DefaultMemoLimit): an exhaustive
// run over a six-table join can present 3^12 signatures to one query. Past
// the cap a miss is planned and answered without being kept.
const costTableLimit = 1 << 18

// Estimator returns the extended-optimizer estimator for this workload:
// per-query times come from planning each query under the candidate layout
// (paper §3.5), so plan changes (e.g. HJ -> INLJ) are reflected in the
// estimates — served from per-query cost tables where the query's relevant
// objects have been seen on the same classes before (see the file comment).
// Estimate is safe for concurrent use as long as nothing re-runs Analyze or
// loads data concurrently; after either, the next Estimate re-prepares the
// workload and starts from empty tables.
//
// The estimator compiles (Compilable) for single-copy alphabets over the
// engine's catalog; wrapped in another Estimator it is driven through the
// map form and answers from the same tables.
func (w *DSS) Estimator(db *engine.DB) Estimator {
	return &dssEstimator{db: db, w: w, limit: costTableLimit}
}

type dssEstimator struct {
	db    *engine.DB
	w     *DSS
	limit int64 // costTableLimit; tests lower it

	mu  sync.Mutex // serialises (re)building tabs
	tab atomic.Pointer[dssTables]

	lookups, plans atomic.Int64
}

// dssTables is the workload prepared against one optimizer at one degree of
// concurrency, with the plan times found under them. A change of either
// retires the whole value: nothing is answered from a table filled under
// older statistics or other service times.
type dssTables struct {
	pw       *PreparedDSS
	conc     int
	queries  []queryCosts
	retained atomic.Int64
}

// queryCosts is one query's cost table: the estimated time of its best
// plan, keyed by the classes of its relevant objects (one byte each, in
// optimizer.Prepared.Relevant order).
type queryCosts struct {
	// resolves marks, by catalog.DenseIndex, the objects planning the query
	// resolves: a move of any other object cannot change the query's time,
	// nor the error it reports.
	resolves []bool
	mu       sync.Mutex
	times    map[string]time.Duration
}

// tables returns the tables for the engine's current statistics, preparing
// the workload on first use and again whenever Analyze (or a change of
// concurrency) made the previous ones stale.
func (e *dssEstimator) tables() (*dssTables, error) {
	opt, err := e.db.Planner()
	if err != nil {
		return nil, err
	}
	fresh := func() *dssTables {
		if t := e.tab.Load(); t != nil && t.pw.opt == opt && t.conc == opt.Concurrency {
			return t
		}
		return nil
	}
	if t := fresh(); t != nil {
		return t, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t := fresh(); t != nil {
		return t, nil
	}
	pw, err := e.w.Prepare(e.db)
	if err != nil {
		return nil, err
	}
	t := &dssTables{pw: pw, conc: opt.Concurrency, queries: make([]queryCosts, pw.Len())}
	for i, p := range pw.queries {
		q := &t.queries[i]
		q.times = make(map[string]time.Duration)
		q.resolves = make([]bool, e.db.Cat.NumObjects())
		if pw.errs[i] != nil {
			continue
		}
		for _, id := range p.Objects() {
			if d := catalog.DenseIndex(id); d >= 0 && d < len(q.resolves) {
				q.resolves[d] = true
			}
		}
	}
	e.tab.Store(t)
	return t, nil
}

// queryTime returns query i's estimated time under v: from its cost table
// when the relevant objects' classes have been planned before, by planning
// otherwise. Either way the layout is first checked exactly as planning
// checks it, so a hit can never hide an unplaced object.
func (e *dssEstimator) queryTime(t *dssTables, i int, v *placement) (time.Duration, error) {
	var buf [16]device.Class
	classes, err := t.pw.placements(i, v, buf[:0])
	if err != nil {
		return 0, err
	}
	var kbuf [16]byte
	key := kbuf[:0]
	for _, r := range t.pw.queries[i].Relevant() {
		key = append(key, byte(classes[r]))
	}
	q := &t.queries[i]
	e.lookups.Add(1)
	q.mu.Lock()
	d, ok := q.times[string(key)]
	q.mu.Unlock()
	if ok {
		return d, nil
	}
	e.plans.Add(1)
	pl, err := t.pw.queries[i].Plan(classes)
	if err != nil {
		return 0, err
	}
	d = pl.Est.Time()
	q.mu.Lock()
	// A concurrent miss on the same key may have got here first.
	if _, dup := q.times[string(key)]; !dup {
		if t.retained.Add(1) <= e.limit {
			q.times[string(key)] = d
		} else {
			t.retained.Add(-1)
		}
	}
	q.mu.Unlock()
	return d, nil
}

// estimate sums every query's time under v.
func (e *dssEstimator) estimate(v *placement) (Metrics, error) {
	t, err := e.tables()
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{PerQuery: make([]time.Duration, 0, len(t.queries))}
	for i := range t.queries {
		d, err := e.queryTime(t, i, v)
		if err != nil {
			return Metrics{}, err
		}
		m.PerQuery = append(m.PerQuery, d)
		m.Elapsed += d
	}
	return m, nil
}

// Estimate implements Estimator.
func (e *dssEstimator) Estimate(l catalog.Layout) (Metrics, error) {
	return e.estimate(&placement{l: l})
}

// PlanCounts reports how many per-query cost lookups the estimator has
// served and how many of them had to plan — the count the benchmark gate
// reads (counts repeat exactly from run to run; times do not).
func (e *dssEstimator) PlanCounts() (lookups, plans int64) {
	return e.lookups.Load(), e.plans.Load()
}

// CompileFor implements Compilable for single-copy alphabets over the
// engine's own catalog: the compiled form reads placements straight from a
// compact layout's bytes and re-looks-up only the queries a move can touch.
// It declines — leaving the search on the map form — a catalog whose object
// IDs are not the engine's (a partitioning's unit catalog) and an alphabet
// with a multi-member set (the planner has no replica routing).
func (e *dssEstimator) CompileFor(cat *catalog.Catalog, alphabet []device.ClassSet) (Estimator, error) {
	if cat != e.db.Cat {
		return nil, fmt.Errorf("workload: the plan-aware estimator compiles for its engine's catalog only")
	}
	for _, set := range alphabetOr(alphabet, e.db.Box) {
		if cls, ok := set.Single(); !ok || e.db.Box.Device(cls) == nil {
			return nil, fmt.Errorf("workload: the plan-aware estimator cannot place a unit on %v", set)
		}
	}
	return compiledDSS{e}, nil
}

// compiledDSS is the compiled form of the plan-aware estimator: the same
// estimator and the same cost tables, read through compact layouts.
type compiledDSS struct{ *dssEstimator }

// EstimateCompact implements CompactEstimator.
func (e compiledDSS) EstimateCompact(cl catalog.CompactLayout) (Metrics, error) {
	return e.estimate(&placement{cl: cl})
}

// EstimateDelta implements CompactEstimator: a query none of whose
// resolved objects moved keeps its base time (exactly — per-query times are
// integers and nothing it reads changed); the others are looked up under
// cl, in query order.
func (e compiledDSS) EstimateDelta(cl catalog.CompactLayout, base Metrics, moves []ObjectMove) (Metrics, error) {
	t, err := e.tables()
	if err != nil {
		return Metrics{}, err
	}
	if len(base.PerQuery) != len(t.queries) {
		return e.EstimateCompact(cl)
	}
	m := Metrics{Elapsed: base.Elapsed, PerQuery: append(make([]time.Duration, 0, len(base.PerQuery)), base.PerQuery...)}
	v := &placement{cl: cl}
	for i := range t.queries {
		q := &t.queries[i]
		touched := false
		for _, mv := range moves {
			if d := catalog.DenseIndex(mv.Obj); d >= 0 && d < len(q.resolves) && q.resolves[d] {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		d, err := e.queryTime(t, i, v)
		if err != nil {
			return Metrics{}, err
		}
		m.Elapsed += d - m.PerQuery[i]
		m.PerQuery[i] = d
	}
	return m, nil
}
