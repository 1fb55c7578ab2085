package online

import (
	"fmt"
	"sync"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/search"
	"dotprov/internal/workload"
)

// Config assembles a Manager. Cat, Box and SLA are required; zero values
// elsewhere select the documented defaults.
type Config struct {
	Cat *catalog.Catalog
	Box *device.Box
	// Concurrency is the degree of concurrency the advisor optimizes for
	// (resolves device service times, paper §3.5). 0 selects 1.
	Concurrency int
	// SLA is the relative performance constraint in (0, 1] (§2.4), applied
	// to every advise and re-advise.
	SLA float64
	// AggregateWindows is how many of the most recent closed windows merge
	// into the profile each drift check and re-advise sees (0 selects 1:
	// judge the latest window alone).
	AggregateWindows int
	// DriftThreshold is the relative I/O-time divergence that triggers
	// re-advising (0 selects DefaultDriftThreshold).
	DriftThreshold float64
	// HeadroomFraction caps a candidate's migration time at this share of
	// the SLA headroom (0 selects DefaultHeadroomFraction).
	HeadroomFraction float64
	// Budget, when set, bounds the layout-search fan-out and shares one
	// worker budget across managers and other engines (dotserve wires its
	// server-wide budget here).
	Budget *search.Budget
	// LayoutCost optionally installs a custom cost model over per-class
	// totals — the §5.2 discrete-sized model (provision.DiscreteCost) — in
	// every search (see core.Input.LayoutCost).
	LayoutCost func(sp catalog.ClassSpace) (float64, error)
	// Replication is the copy cap every advise and re-advise searches at
	// (core.ReplicationConfig.Cap): above one copy, reads route to the best
	// copy per access pattern, writes land on every copy, drift is judged at
	// replica-routed service times and migrations are priced per copy
	// gained. A cap above one prices only the linear cost model, so it
	// cannot combine with LayoutCost.
	Replication core.ReplicationConfig
	// Partitioning, when set, advises at partition granularity: observed
	// profiles are apportioned onto the partitioning's units by extent
	// heat, searches run over the unit catalog, and the deployed layout,
	// decisions and migration plans are unit-granular — a drifted hot tail
	// migrates alone instead of dragging its whole table. The partitioning
	// must be built from Cat.
	Partitioning *catalog.Partitioning
}

// Stats counts the manager's lifetime activity (healthz fodder).
type Stats struct {
	WindowsClosed int64 // windows the collector has closed or ingested
	Checks        int64 // drift checks run
	Drifts        int64 // checks that reported drift
	ReAdvises     int64 // ReAdvise decisions that adopted a changed layout (the initial Advise is not counted)
	Fallbacks     int64 // re-advises that fell back to a full cold search
}

// Decision reports one advise or re-advise outcome.
type Decision struct {
	// Drift is the drift check that led here (zero-valued on the initial
	// Advise, which has no reference profile yet).
	Drift Drift
	// WindowsMerged is how many closed windows the decision's profile
	// aggregated.
	WindowsMerged int
	// ReAdvised reports that a changed layout was adopted. False with
	// Feasible=true means the search confirmed the deployed layout (the
	// reference profile is re-anchored so the same drift does not re-fire).
	ReAdvised bool
	// Incremental reports the adopted result came from the seeded
	// incremental search; false means the migration-gated search found no
	// feasible layout and the manager fell back to a full cold search.
	Incremental bool
	// Feasible mirrors Result.Feasible. When false the deployed layout is
	// left unchanged and the reference profile is NOT re-anchored, so the
	// next check fires again and the manager keeps retrying.
	Feasible bool
	// SetFrom and SetTo are the deployed layouts before and after the
	// decision (SetTo is nil when nothing was adopted).
	SetFrom, SetTo catalog.SetLayout
	// Result is the underlying search result (nil when no search ran):
	// evaluation counts, metrics, plan time, and the recommendation whose
	// single-class Layout is nil while some unit holds more than one copy.
	// It may be shared with other managers (see AdviseWith): read it only.
	Result *core.Result
	// Migration prices the adopted transition (empty when none).
	Migration MigrationPlan
}

// Manager runs the online advising loop for one workload stream: it owns
// the rolling profile collector, the drift detector, the deployed layout,
// and the reference profile that layout was optimized for. All methods are
// safe for concurrent use.
type Manager struct {
	cfg Config
	// cat is the catalog layouts are keyed by: the partitioning's unit
	// catalog at partition granularity, cfg.Cat otherwise.
	cat *catalog.Catalog
	det detector
	mig migrationModel
	col *Collector

	mu sync.Mutex
	// cur is the deployed layout: every unit's set of classes holding a
	// copy, all singletons unless Config.Replication admits more.
	cur    catalog.SetLayout
	ref    Window
	hasRef bool
	stats  Stats
}

// NewManager validates the config and builds the manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Cat == nil || cfg.Box == nil {
		return nil, fmt.Errorf("online: Config requires Cat and Box")
	}
	if len(cfg.Box.Devices) == 0 {
		return nil, fmt.Errorf("online: box %q has no devices", cfg.Box.Name)
	}
	if cfg.SLA <= 0 || cfg.SLA > 1 {
		return nil, fmt.Errorf("online: SLA must be in (0, 1], got %g", cfg.SLA)
	}
	if cfg.Replication.Cap() > 1 && cfg.LayoutCost != nil {
		return nil, fmt.Errorf("online: replicated advising prices only the linear cost model; drop LayoutCost or Replication")
	}
	cat := cfg.Cat
	if cfg.Partitioning != nil {
		if cfg.Partitioning.Base() != cfg.Cat {
			return nil, fmt.Errorf("online: Partitioning was not built from Config.Cat")
		}
		cat = cfg.Partitioning.UnitCatalog()
	}
	m := &Manager{
		cfg: cfg,
		cat: cat,
		det: detector{
			Box:         cfg.Box,
			Concurrency: cfg.Concurrency,
			Threshold:   cfg.DriftThreshold,
		},
		mig: newMigrationModel(cat, cfg.Box),
		col: NewCollector(DefaultWindows),
		// The engine starts on L0, every unit on the most expensive class
		// (the paper's profiling default); a replicated loop grows copies
		// from there.
		cur: catalog.NewUniformSetLayout(cat, device.Singleton(cfg.Box.MostExpensive().Class)),
	}
	return m, nil
}

// Partitioning returns the manager's partitioning, or nil at object
// granularity.
func (m *Manager) Partitioning() *catalog.Partitioning { return m.cfg.Partitioning }

// Catalog returns the catalog the manager's layouts and decisions are
// keyed by: the partitioning's unit catalog at partition granularity,
// Config.Cat otherwise.
func (m *Manager) Catalog() *catalog.Catalog { return m.cat }

// Box returns the device box the manager advises against.
func (m *Manager) Box() *device.Box { return m.cfg.Box }

// SLA returns the configured relative performance constraint.
func (m *Manager) SLA() float64 { return m.cfg.SLA }

// lower apportions an aggregated window onto the unit catalog when the
// manager advises at partition granularity; at object granularity it is
// the identity.
func (m *Manager) lower(w Window) Window {
	if m.cfg.Partitioning == nil || w.Profile == nil {
		return w
	}
	out := w
	out.Profile = iosim.ApportionProfile(w.Profile, m.cfg.Partitioning)
	return out
}

// Collector returns the manager's profile collector — install it as the
// engine's tap (engine.DB.SetTap) or feed it windows via Observe.
func (m *Manager) Collector() *Collector { return m.col }

// Observe ingests a window closed elsewhere (the /observe wire path). The
// collector keeps w itself: the caller must not modify it afterwards.
func (m *Manager) Observe(w Window) { m.col.Observe(w) }

// CurrentSetLayout returns a copy of the deployed layout the manager
// advises from. At partition granularity it is unit-granular (keyed by the
// partitioning's unit catalog).
func (m *Manager) CurrentSetLayout() catalog.SetLayout {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.Clone()
}

// Advised reports whether an initial Advise has anchored a reference
// profile (ReAdvise requires it).
func (m *Manager) Advised() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hasRef
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := m.stats
	m.mu.Unlock()
	s.WindowsClosed = m.col.Total()
	return s
}

func (m *Manager) aggWindows() int {
	if m.cfg.AggregateWindows < 1 {
		return 1
	}
	return m.cfg.AggregateWindows
}

// Input lowers the window onto a core.Input over cat, the one lowering
// every advise, provision and stream search takes: the profile becomes the
// estimator — §4.5's throughput path when the window carries
// transactions, the observed-counts path (§3.4) otherwise — and the
// single-profile set DOT's move scoring reads. deployed is the layout the
// window was measured under, which the throughput path anchors on; nil
// means L0, every unit on the box's most expensive class. The caller sets
// the search's budget, cost model and copy cap.
func (w Window) Input(cat *catalog.Catalog, box *device.Box, concurrency int, deployed catalog.SetLayout) (core.Input, error) {
	if len(box.Devices) == 0 {
		return core.Input{}, fmt.Errorf("online: box %q has no devices", box.Name)
	}
	var est workload.Estimator
	if w.Txns > 0 {
		if w.Elapsed <= 0 {
			return core.Input{}, fmt.Errorf("online: transactional window (txns=%d) without elapsed time", w.Txns)
		}
		if deployed == nil {
			deployed = catalog.NewUniformSetLayout(cat, device.Singleton(box.MostExpensive().Class))
		}
		pe, err := workload.NewSetProfileEstimator(box, concurrency, w.Profile, w.CPU,
			workload.RunStats{Txns: w.Txns, Elapsed: w.Elapsed}, deployed)
		if err != nil {
			return core.Input{}, err
		}
		est = pe
	} else {
		est = &workload.ObservedEstimator{
			Box:         box,
			Concurrency: concurrency,
			PerQuery:    []workload.QueryObservation{{Profile: w.Profile, CPU: w.CPU}},
		}
	}
	ps := core.NewProfileSet()
	ps.SetSingle(w.Profile)
	return core.Input{Cat: cat, Box: box, Est: est, Profiles: ps, Concurrency: concurrency}, nil
}

// input lowers an observed window, captured under the deployed layout,
// onto the manager's search input. Callers hold m.mu.
func (m *Manager) input(w Window) (core.Input, error) {
	in, err := w.Input(m.cat, m.cfg.Box, m.cfg.Concurrency, m.cur)
	if err != nil {
		return core.Input{}, err
	}
	in.Budget, in.LayoutCost, in.Replication = m.cfg.Budget, m.cfg.LayoutCost, m.cfg.Replication
	return in, nil
}

// SearchFunc runs one cold layout optimization — core.OptimizeBest's
// shape, at the copy cap the input carries. AdviseWith callers inject it to
// interpose on the search (the serve fleet memo coalesces equal-fingerprint
// tenants here); it must be a pure function of its input so an injected
// cache stays sound.
type SearchFunc func(in core.Input, opts core.Options) (*core.Result, error)

// Advise runs the initial cold optimization off the collected profile and,
// when feasible, adopts the layout and anchors the reference profile that
// subsequent drift checks compare against.
func (m *Manager) Advise() (*Decision, error) { return m.AdviseWith(core.OptimizeBest) }

// AdviseWith is Advise with the cold search injected. The returned result
// may be shared by other managers advising an identical workload (the
// fleet memo path): the manager only reads it and clones its layout before
// adopting, never mutating the result.
func (m *Manager) AdviseWith(search SearchFunc) (*Decision, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	agg, n := m.col.Aggregate(m.aggWindows())
	if n == 0 || agg.IOs() < minWindowIOs {
		return nil, fmt.Errorf("online: no usable observations to advise from (windows=%d, ios=%g)", n, agg.IOs())
	}
	agg = m.lower(agg)
	in, err := m.input(agg)
	if err != nil {
		return nil, err
	}
	res, err := search(in, core.Options{RelativeSLA: m.cfg.SLA})
	if err != nil {
		return nil, err
	}
	dec := m.newDecision(Drift{}, n)
	m.adopt(dec, res, agg)
	m.hasRef = m.hasRef || res.Feasible
	return dec, nil
}

// newDecision starts a decision off the deployed layout. Callers hold m.mu.
func (m *Manager) newDecision(dr Drift, windows int) *Decision {
	return &Decision{Drift: dr, WindowsMerged: windows, SetFrom: m.cur.Clone()}
}

// adopt records a search result on the decision and, when it is feasible,
// prices the transition, installs the layout and re-anchors the reference
// profile on the aggregate the search optimized. Callers hold m.mu.
func (m *Manager) adopt(dec *Decision, res *core.Result, agg Window) {
	dec.Result, dec.Feasible = res, res.Feasible
	if !res.Feasible {
		return
	}
	dec.Migration = m.mig.Plan(m.cur, res.SetLayout)
	dec.SetTo = res.SetLayout.Clone()
	dec.ReAdvised = len(dec.Migration.Moves) > 0
	m.cur = res.SetLayout.Clone()
	m.ref = agg
}

// Check runs one drift check of the latest aggregate against the reference
// profile under the deployed layout, without re-advising.
func (m *Manager) Check() (Drift, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dr, _, n, err := m.checkLocked()
	return dr, n, err
}

// checkLocked judges the latest aggregate and returns it alongside the
// verdict, so a re-advise optimizes and re-anchors EXACTLY the profile the
// drift decision was made on (the collector keeps ingesting concurrently;
// re-aggregating later could see different windows).
func (m *Manager) checkLocked() (Drift, Window, int, error) {
	if !m.hasRef {
		return Drift{}, Window{}, 0, fmt.Errorf("online: drift check before an initial Advise")
	}
	agg, n := m.col.Aggregate(m.aggWindows())
	if n == 0 {
		return Drift{Thin: true}, agg, 0, nil
	}
	agg = m.lower(agg)
	dr, err := m.det.Compare(m.ref, agg, m.cur)
	if err != nil {
		return Drift{}, Window{}, n, err
	}
	m.stats.Checks++
	if dr.Drifted {
		m.stats.Drifts++
	}
	return dr, agg, n, nil
}

// ReAdvise runs the drift check and, when drift is detected (or force is
// set), re-optimizes incrementally: the search is seeded with the deployed
// layout and candidates are admitted through the migration gate, so a
// small drift yields a small set of moves — copies grow and drop as freely
// as units move. When the gated search finds no feasible layout the manager
// falls back to a full cold search. Adopting a result (changed or
// confirmed) re-anchors the reference profile; an infeasible outcome leaves
// both layout and reference untouched so the next call retries.
func (m *Manager) ReAdvise(force bool) (*Decision, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dr, agg, n, err := m.checkLocked()
	if err != nil {
		return nil, err
	}
	dec := m.newDecision(dr, n)
	// Thin aggregates are never actionable, forced or not: optimizing for
	// a near-empty profile would find every layout trivially "feasible"
	// and migrate the database onto whatever is cheapest.
	if n == 0 || dr.Thin || (!force && !dr.Drifted) {
		return dec, nil
	}
	in, err := m.input(agg)
	if err != nil {
		return nil, err
	}
	res, err := core.OptimizeIncremental(in, core.IncrementalOptions{
		Options: core.Options{RelativeSLA: m.cfg.SLA},
		Seed:    m.cur,
		Accept:  m.mig.Gate(m.cur, m.cfg.HeadroomFraction),
	})
	if err != nil {
		return nil, err
	}
	dec.Incremental = true
	if !res.Feasible {
		// The migration budget admits no feasible layout near the deployed
		// one; re-solve from scratch (full migration is then priced, not
		// gated — the operator sees it in the decision).
		if res, err = core.OptimizeBest(in, core.Options{RelativeSLA: m.cfg.SLA}); err != nil {
			return nil, err
		}
		dec.Incremental = false
		m.stats.Fallbacks++
	}
	m.adopt(dec, res, agg)
	if dec.ReAdvised {
		m.stats.ReAdvises++
	}
	return dec, nil
}
