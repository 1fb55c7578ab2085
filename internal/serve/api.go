package serve

import (
	"fmt"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/provision"
	"dotprov/internal/search"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// ObjectSpec declares one database object of the advised workload.
type ObjectSpec struct {
	Name string `json:"name"`
	// Kind is "table" (default), "index", "temp" or "log". Indexes must name
	// their owning table; DOT groups a table with its indexes (§3.2).
	Kind      string `json:"kind,omitempty"`
	Table     string `json:"table,omitempty"`
	SizeBytes int64  `json:"size_bytes"`
	// Extents optionally declares the object's access-locality histogram:
	// contiguous byte runs from offset 0 with their relative access heat.
	// Partition-granular requests split objects on these extents; objects
	// without extents stay whole. Ignored at object granularity.
	Extents []ExtentSpec `json:"extents,omitempty"`
}

// ExtentSpec is one contiguous slice of an object with its observed access
// heat (a relative weight; only ratios matter).
type ExtentSpec struct {
	SizeBytes int64   `json:"size_bytes"`
	Heat      float64 `json:"heat"`
}

// IOSpec is one object's I/O counts over the whole workload — the profile
// chi_r[o] of §3.3: reads in page I/Os, writes in rows, as measured (or
// estimated) on the profiled layout.
type IOSpec struct {
	Object    string  `json:"object"`
	SeqRead   float64 `json:"seq_read,omitempty"`
	RandRead  float64 `json:"rand_read,omitempty"`
	SeqWrite  float64 `json:"seq_write,omitempty"`
	RandWrite float64 `json:"rand_write,omitempty"`
}

// WorkloadSpec is the wire form of a profiled workload: the objects, the
// observed I/O profile, CPU time, and the degree of concurrency. When Txns
// is set the workload is transactional (OLTP) and the advisor optimizes
// cents/transaction against a throughput SLA; otherwise it is a DSS
// workload optimized for cents/run against an elapsed-time SLA.
type WorkloadSpec struct {
	Objects     []ObjectSpec `json:"objects"`
	IO          []IOSpec     `json:"io"`
	CPUMillis   float64      `json:"cpu_millis,omitempty"`
	Concurrency int          `json:"concurrency,omitempty"`
	// OLTP test-run numbers: committed transactions and elapsed virtual time
	// of the profiled run (§4.5's single test run).
	Txns          int64   `json:"txns,omitempty"`
	ElapsedMillis float64 `json:"elapsed_millis,omitempty"`
}

// AdviseRequest asks for a single-workload DOT recommendation on a fixed
// box.
type AdviseRequest struct {
	Workload WorkloadSpec `json:"workload"`
	// Box selects a built-in configuration: "box1" (default), "box2" or
	// "htap" (the striped-HDD mixed box whose sequential scans beat the
	// H-SSD, the setting where replication pays).
	Box string `json:"box,omitempty"`
	// Classes overrides Box with an explicit class list, e.g.
	// ["hdd", "lssd", "hssd"] (see device.ParseClass for accepted names).
	Classes []string `json:"classes,omitempty"`
	SLA     float64  `json:"sla"`
	// Alpha selects the §5.2 discrete-sized cost model blend; 0 (default)
	// is the paper's linear model.
	Alpha float64 `json:"alpha,omitempty"`
	// Granularity selects the unit of placement: "object" (default) places
	// whole objects; "partition" splits objects into heat-based page-range
	// units on the declared extents, so a hot head can land on a fast
	// class while the cold tail ships to a cheap one.
	Granularity string `json:"granularity,omitempty"`
	// Exhaustive runs the branch-and-bound enumeration instead of the
	// greedy DOT sweeps: the provably optimal layout, at enumeration cost
	// (the server refuses spaces whose canonical size exceeds the
	// core.MaxExhaustiveLayouts cap). The response then carries Search
	// statistics.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Replication turns on replica-set placement: a unit may hold copies on
	// several storage classes, each read pattern routes to its best replica
	// and every write lands on all copies. The response then carries the
	// per-unit copy lists in Replicas. Prices only the paper's linear cost
	// model, so Alpha must be 0.
	Replication bool `json:"replication,omitempty"`
	// MaxReplicas caps the copies per unit when Replication is set; values
	// below 1 mean no cap (up to one copy per storage class).
	MaxReplicas int `json:"max_replicas,omitempty"`
}

// AdviseResponse reports the recommendation.
type AdviseResponse struct {
	Feasible bool   `json:"feasible"`
	Failure  string `json:"failure,omitempty"`
	// Granularity echoes the effective placement granularity; at
	// "partition" the layout keys are unit names ("orders[0:1024)").
	Granularity string `json:"granularity,omitempty"`
	// Units is the number of placement units searched (partition
	// granularity only); SplitObjects counts objects whose units landed on
	// more than one class.
	Units             int               `json:"units,omitempty"`
	SplitObjects      int               `json:"split_objects,omitempty"`
	Layout            map[string]string `json:"layout,omitempty"`
	TOCCents          float64           `json:"toc_cents"`
	ElapsedMillis     float64           `json:"elapsed_millis,omitempty"`
	ThroughputPerHour float64           `json:"throughput_per_hour,omitempty"`
	Evaluated         int               `json:"evaluated"`
	EstimatorCalls    int               `json:"estimator_calls"`
	PlanMillis        float64           `json:"plan_millis"`
	// Search carries the enumeration's work profile when the advisor ran
	// an exhaustive walk; absent for the greedy optimizer's hill-climbing
	// searches.
	Search *SearchStatsOut `json:"search,omitempty"`
	// Replicas maps each unit to its recommended copy classes when the
	// request asked for replication; a single-entry list is a single-copy
	// placement. Layout is then populated only when every unit collapsed to
	// one copy.
	Replicas map[string][]string `json:"replicas,omitempty"`
	// MaxCopies is the largest replica count of any unit, and
	// ReplicatedCopies counts the extra copies placed beyond one per unit
	// (both replication requests only).
	MaxCopies        int `json:"max_copies,omitempty"`
	ReplicatedCopies int `json:"replicated_copies,omitempty"`
}

// SearchStatsOut is the wire form of the exhaustive enumeration's work
// profile: how many candidates were actually evaluated, how many subtrees
// the cost floor discarded, how symmetric units collapsed the space, and
// how tight the root bound was.
type SearchStatsOut struct {
	Candidates     int     `json:"candidates"`
	BoundPruned    int     `json:"bound_pruned,omitempty"`
	Groups         int     `json:"dominance_groups,omitempty"`
	GroupedUnits   int     `json:"dominance_units,omitempty"`
	SpaceSize      float64 `json:"space_size,omitempty"`
	CanonicalSize  float64 `json:"canonical_size,omitempty"`
	RootFloorCents float64 `json:"root_floor_cents,omitempty"`
}

// GridDeviceSpec is one axis of the provisioning grid: a storage class and
// its allowed unit counts (0 = the class may be absent).
type GridDeviceSpec struct {
	Class  string `json:"class"`
	Counts []int  `json:"counts"`
}

// GridSpec is the wire form of provision.Grid.
type GridSpec struct {
	Devices    []GridDeviceSpec `json:"devices"`
	Alphas     []float64        `json:"alphas,omitempty"`
	MaxClasses int              `json:"max_classes,omitempty"`
}

// ProvisionRequest asks for a full §5 configuration sweep.
type ProvisionRequest struct {
	Workload WorkloadSpec `json:"workload"`
	Grid     GridSpec     `json:"grid"`
	SLA      float64      `json:"sla"`
	// Granularity selects the unit of placement for every candidate's
	// inner search (see AdviseRequest.Granularity).
	Granularity string `json:"granularity,omitempty"`
}

// CandidateOut is one sweep candidate's outcome.
type CandidateOut struct {
	Name     string            `json:"name"`
	Alpha    float64           `json:"alpha"`
	Feasible bool              `json:"feasible"`
	Failure  string            `json:"failure,omitempty"`
	TOCCents float64           `json:"toc_cents"`
	Layout   map[string]string `json:"layout,omitempty"` // feasible candidates only
}

// ProvisionResponse reports the sweep: the winning candidate index (-1 when
// nothing is feasible) and every candidate's outcome.
type ProvisionResponse struct {
	Best           int            `json:"best"`
	Cached         bool           `json:"cached"`
	Candidates     []CandidateOut `json:"candidates"`
	Evaluated      int            `json:"evaluated"`
	EstimatorCalls int            `json:"estimator_calls"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status        string `json:"status"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	Served        int64  `json:"served"`
	CacheHits     int64  `json:"cache_hits"`
	Rejected      int64  `json:"rejected"`
	// Online advising counters: defined streams, profile windows ingested
	// via /observe, and re-advise decisions that adopted a changed layout.
	Streams   int   `json:"streams"`
	Observed  int64 `json:"observed"`
	ReAdvised int64 `json:"readvised"`
	// Binary ingest-plane counters: frames admitted but not yet folded,
	// frames folded into stream windows, and observe requests shed with
	// 429 because the bounded queue was full.
	Queued   int64 `json:"queued"`
	Ingested int64 `json:"ingested"`
	Shed     int64 `json:"shed"`
	// Crash-safety counters: background panics recovered, snapshot
	// generations written and writes failed, the newest published
	// generation (0 before the first), and streams restored from a
	// snapshot at boot.
	Panics        int64  `json:"panics"`
	Snapshots     int64  `json:"snapshots"`
	SnapshotFails int64  `json:"snapshot_failures"`
	SnapshotGen   uint64 `json:"snapshot_generation"`
	Restored      int64  `json:"restored_streams"`
	// Fleet-plane counters: the shard-ring width, the fleet advise memo's
	// hit/miss totals, and the idle-eviction lifecycle (streams evicted to
	// parked records, parked records rematerialized on touch).
	Shards         int   `json:"shards"`
	MemoHits       int64 `json:"memo_hits"`
	MemoMisses     int64 `json:"memo_misses"`
	Evicted        int64 `json:"evicted_streams"`
	Rematerialized int64 `json:"rematerialized_streams"`
}

// ReadyResponse is the /v1/readyz body — readiness, deliberately split
// from liveness: /v1/healthz answers 200 whenever the process serves,
// while readyz answers 503 when the server should get no NEW work
// (draining out for shutdown, or degraded because snapshots persistently
// fail).
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// State is "ready", "draining" or "degraded".
	State string `json:"state"`
	// Reason explains a not-ready state, "" when ready.
	Reason string `json:"reason,omitempty"`
}

// compiled is a WorkloadSpec lowered onto the in-process model: a catalog
// (whose object names are the spec's, for rendering layouts back) and the
// workload profile.
type compiled struct {
	cat     *catalog.Catalog
	profile iosim.Profile
	spec    WorkloadSpec
}

// compileWorkload validates the spec and builds the catalog + profile.
func compileWorkload(spec WorkloadSpec) (*compiled, error) {
	if len(spec.Objects) == 0 {
		return nil, fmt.Errorf("workload declares no objects")
	}
	if spec.Concurrency < 0 {
		return nil, fmt.Errorf("concurrency must be >= 0")
	}
	if spec.Txns < 0 || spec.CPUMillis < 0 || spec.ElapsedMillis < 0 {
		return nil, fmt.Errorf("txns, cpu_millis and elapsed_millis must be >= 0")
	}
	if spec.Txns > 0 && spec.ElapsedMillis <= 0 {
		return nil, fmt.Errorf("transactional workloads (txns > 0) need elapsed_millis of the test run")
	}
	cat := catalog.New()
	// Synthetic single-column schema: serve placements care about object
	// sizes and I/O counts, not row formats.
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	tables := make(map[string]*catalog.Table)
	for _, o := range spec.Objects {
		if o.SizeBytes < 0 {
			return nil, fmt.Errorf("object %q: size_bytes must be >= 0", o.Name)
		}
		var extBytes int64
		for i, e := range o.Extents {
			if e.SizeBytes <= 0 || e.Heat < 0 {
				return nil, fmt.Errorf("object %q extent %d: size_bytes must be > 0 and heat >= 0", o.Name, i)
			}
			extBytes += e.SizeBytes
		}
		// Extents may under-cover the object (the remainder partitions as a
		// cold tail) but never over-declare it: silently clamping would skew
		// the heat attribution the client asked for.
		if extBytes > o.SizeBytes {
			return nil, fmt.Errorf("object %q: extents declare %d bytes but the object has %d", o.Name, extBytes, o.SizeBytes)
		}
		kind := o.Kind
		if kind == "" {
			kind = "table"
		}
		var id catalog.ObjectID
		switch kind {
		case "table":
			t, err := cat.CreateTable(o.Name, schema, nil)
			if err != nil {
				return nil, err
			}
			tables[o.Name] = t
			id = t.ID
		case "index":
			t, ok := tables[o.Table]
			if !ok {
				return nil, fmt.Errorf("index %q: owning table %q not declared before it", o.Name, o.Table)
			}
			ix, err := cat.CreateIndex(o.Name, t.ID, []string{"k"}, false)
			if err != nil {
				return nil, err
			}
			id = ix.ID
		case "temp", "log":
			k := catalog.KindTemp
			if kind == "log" {
				k = catalog.KindLog
			}
			aux, err := cat.CreateAux(o.Name, k, o.SizeBytes)
			if err != nil {
				return nil, err
			}
			id = aux.ID
		default:
			return nil, fmt.Errorf("object %q: unknown kind %q (want table, index, temp or log)", o.Name, kind)
		}
		cat.SetSize(id, o.SizeBytes)
	}
	profile := iosim.NewProfile()
	for _, io := range spec.IO {
		o := cat.Lookup(io.Object)
		if o == nil {
			return nil, fmt.Errorf("io entry references undeclared object %q", io.Object)
		}
		if io.SeqRead < 0 || io.RandRead < 0 || io.SeqWrite < 0 || io.RandWrite < 0 {
			return nil, fmt.Errorf("io entry for %q has negative counts", io.Object)
		}
		profile.Add(o.ID, device.SeqRead, io.SeqRead)
		profile.Add(o.ID, device.RandRead, io.RandRead)
		profile.Add(o.ID, device.SeqWrite, io.SeqWrite)
		profile.Add(o.ID, device.RandWrite, io.RandWrite)
	}
	return &compiled{cat: cat, profile: profile, spec: spec}, nil
}

func (c *compiled) concurrency() int {
	if c.spec.Concurrency < 1 {
		return 1
	}
	return c.spec.Concurrency
}

// input lowers the workload onto the core.Input for a box, under the
// server-wide search worker budget: the spec's observation as one window,
// measured under L0, through the lowering every stream search takes too.
// The estimator is handed on uncompiled: whoever builds the search engine
// (core for an advise, the provisioning sweep once for all its candidates)
// compiles the dense time tables exactly once, after the input has been
// lowered to its final granularity and for the class sets that search
// enumerates.
func (c *compiled) input(box *device.Box, budget *search.Budget) (core.Input, error) {
	in, err := c.window().Input(c.cat, box, c.concurrency(), nil)
	if err != nil {
		return core.Input{}, err
	}
	in.Budget = budget
	return in, nil
}

// renderSetLayout maps a class-set layout onto placement-unit names -> copy
// class name lists (device.ClassSet member order). cat is the catalog the
// search ran on: unit catalogs name their objects after the units
// ("orders[0:1024)"), so one renderer serves both granularities.
func renderSetLayout(cat *catalog.Catalog, sl catalog.SetLayout) map[string][]string {
	out := make(map[string][]string, len(sl))
	for id, set := range sl {
		if o := cat.Object(id); o != nil {
			members := set.Classes()
			names := make([]string, len(members))
			for i, cls := range members {
				names[i] = cls.String()
			}
			out[o.Name] = names
		}
	}
	return out
}

// renderLayout maps a single-class layout onto placement-unit names ->
// class names (see renderSetLayout for cat).
func renderLayout(cat *catalog.Catalog, l catalog.Layout) map[string]string {
	out := make(map[string]string, len(l))
	for id, cls := range l {
		if o := cat.Object(id); o != nil {
			out[o.Name] = cls.String()
		}
	}
	return out
}

// hashObjects digests the object list (name, kind, grouping, size,
// extents) into f. It is the single definition both fingerprints build
// on, so the stream-pinning and cache-keying digests can never diverge on
// a future ObjectSpec field.
func (c *compiled) hashObjects(f *workload.Fingerprint) {
	f.Int(int64(len(c.spec.Objects)))
	for _, o := range c.spec.Objects {
		f.String(o.Name).String(o.Kind).String(o.Table).Int(o.SizeBytes)
		f.Int(int64(len(o.Extents)))
		for _, e := range o.Extents {
			f.Int(e.SizeBytes).Float(e.Heat)
		}
	}
}

// objectsFingerprint digests only the object list (name, kind, grouping,
// size, extents). Online streams pin it at definition time: later
// /observe windows must ship the identical schema, only the observation
// varies.
func (c *compiled) objectsFingerprint() string {
	f := workload.NewFingerprint()
	c.hashObjects(f)
	return f.Sum()
}

// fingerprint digests the estimator-relevant content of the spec for cache
// keying: objects (name, kind, size, grouping), profile, CPU, concurrency
// and test-run numbers.
func (c *compiled) fingerprint() string {
	f := workload.NewFingerprint()
	c.hashObjects(f)
	f.Profile(c.profile)
	f.Float(c.spec.CPUMillis)
	f.Int(int64(c.concurrency()))
	f.Int(c.spec.Txns)
	f.Float(c.spec.ElapsedMillis)
	return f.Sum()
}

// partitioning builds the heat-based partitioning from the spec's declared
// extents (objects without extents stay whole).
func (c *compiled) partitioning() (*catalog.Partitioning, error) {
	stats := catalog.ExtentStats{
		PageBytes: catalog.DefaultPageBytes,
		ByObject:  make(map[catalog.ObjectID][]catalog.Extent),
	}
	for _, o := range c.spec.Objects {
		if len(o.Extents) == 0 {
			continue
		}
		obj := c.cat.Lookup(o.Name)
		if obj == nil {
			continue
		}
		// Page boundaries come from cumulative byte offsets, so per-extent
		// rounding cannot inflate boundaries and push later extents (and
		// their declared heat) off the end of the object. A slice too small
		// to cross a page boundary folds its heat into the extent that owns
		// that page instead of occupying a page of its own.
		var offset, page int64
		for _, e := range o.Extents {
			offset += e.SizeBytes
			end := (offset + stats.PageBytes - 1) / stats.PageBytes
			exts := stats.ByObject[obj.ID]
			if end <= page {
				// offset > 0 makes end >= 1, so the first extent always
				// emits; a non-advancing slice therefore has a predecessor.
				exts[len(exts)-1].Count += e.Heat
				continue
			}
			stats.ByObject[obj.ID] = append(exts, catalog.Extent{Pages: end - page, Count: e.Heat})
			page = end
		}
	}
	return catalog.BuildPartitioning(c.cat, stats, catalog.PartitionOptions{})
}

// parseGranularity validates a wire granularity value and returns its
// canonical label, "object" or "partition".
func parseGranularity(s string) (string, error) {
	switch s {
	case "", "object":
		return "object", nil
	case "partition":
		return s, nil
	}
	return "", fmt.Errorf("unknown granularity %q (want object or partition)", s)
}

// target is a request's placement target, parsed once for an advise and
// for a stream's define: the box, the canonical granularity label, the
// partitioning (nil at object granularity) and the §5.2 discrete cost
// model (nil under the paper's linear one).
type target struct {
	box         *device.Box
	granularity string
	pt          *catalog.Partitioning
	layoutCost  func(catalog.ClassSpace) (float64, error)
}

// parseTarget validates a target and its relative SLA over the compiled
// workload, whose declared extents the partitioning splits on.
func parseTarget(comp *compiled, sla float64, box string, classes []string, granularity string, alpha float64) (target, error) {
	if err := validSLA(sla); err != nil {
		return target{}, err
	}
	b, err := parseBox(box, classes)
	if err != nil {
		return target{}, err
	}
	tg := target{box: b}
	if tg.granularity, err = parseGranularity(granularity); err != nil {
		return target{}, err
	}
	if tg.granularity == "partition" {
		if tg.pt, err = comp.partitioning(); err != nil {
			return target{}, err
		}
	}
	if alpha != 0 {
		if tg.layoutCost, err = provision.DiscreteCost(b, alpha); err != nil {
			return target{}, err
		}
	}
	return tg, nil
}

// parseGrid lowers a GridSpec onto provision.Grid.
func parseGrid(spec GridSpec) (provision.Grid, error) {
	g := provision.Grid{Alphas: spec.Alphas, MaxClasses: spec.MaxClasses}
	for _, d := range spec.Devices {
		cls, err := device.ParseClass(d.Class)
		if err != nil {
			return provision.Grid{}, err
		}
		g.Devices = append(g.Devices, provision.DeviceOption{Class: cls, Counts: d.Counts})
	}
	if err := g.Validate(); err != nil {
		return provision.Grid{}, err
	}
	return g, nil
}

// parseBox resolves a box selection: an explicit class list when one is
// given, the named built-in box otherwise.
func parseBox(name string, classes []string) (*device.Box, error) {
	if len(classes) > 0 {
		b := &device.Box{Name: "custom"}
		seen := make(map[device.Class]bool)
		for _, s := range classes {
			cls, err := device.ParseClass(s)
			if err != nil {
				return nil, err
			}
			if seen[cls] {
				return nil, fmt.Errorf("class %q listed twice", s)
			}
			seen[cls] = true
			b.Devices = append(b.Devices, device.New(cls))
		}
		return b, nil
	}
	switch name {
	case "", "box1", "1":
		return device.Box1(), nil
	case "box2", "2":
		return device.Box2(), nil
	case "htap":
		return device.BoxHTAP(), nil
	default:
		return nil, fmt.Errorf("unknown box %q (want box1, box2 or htap, or set classes)", name)
	}
}
