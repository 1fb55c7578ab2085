package main

import (
	"encoding/json"
	"fmt"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/provision"
	"dotprov/internal/search"
	"dotprov/internal/serve"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// model is a wire WorkloadSpec lowered onto the in-process types with the
// public constructors only: the harness's own copy of what serve builds
// per request. The checker prices answers on it (map path), and the traced
// replay's mirrored pipeline searches on it (compiled path) — the mirror
// is trusted only because the replay asserts its answer equals the
// handler's.
type model struct {
	spec    serve.WorkloadSpec
	cat     *catalog.Catalog
	profile iosim.Profile
}

// buildModel builds the catalog and profile a spec declares. IDs are
// assigned in declaration order, as in serve.
func buildModel(spec serve.WorkloadSpec) (*model, error) {
	cat := catalog.New()
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	for _, o := range spec.Objects {
		var id catalog.ObjectID
		switch o.Kind {
		case "", "table":
			t, err := cat.CreateTable(o.Name, schema, nil)
			if err != nil {
				return nil, err
			}
			id = t.ID
		case "index":
			t, err := cat.TableByName(o.Table)
			if err != nil {
				return nil, err
			}
			ix, err := cat.CreateIndex(o.Name, t.ID, []string{"k"}, false)
			if err != nil {
				return nil, err
			}
			id = ix.ID
		case "log":
			aux, err := cat.CreateAux(o.Name, catalog.KindLog, o.SizeBytes)
			if err != nil {
				return nil, err
			}
			id = aux.ID
		default:
			return nil, fmt.Errorf("object %q: kind %q is not generated by this benchmark", o.Name, o.Kind)
		}
		cat.SetSize(id, o.SizeBytes)
	}
	profile := iosim.NewProfile()
	for _, io := range spec.IO {
		o := cat.Lookup(io.Object)
		if o == nil {
			return nil, fmt.Errorf("io entry references undeclared object %q", io.Object)
		}
		profile.Add(o.ID, device.SeqRead, io.SeqRead)
		profile.Add(o.ID, device.RandRead, io.RandRead)
		profile.Add(o.ID, device.SeqWrite, io.SeqWrite)
		profile.Add(o.ID, device.RandWrite, io.RandWrite)
	}
	return &model{spec: spec, cat: cat, profile: profile}, nil
}

// concurrency is the spec's degree of concurrency (at least 1).
func (m *model) concurrency() int {
	if m.spec.Concurrency < 1 {
		return 1
	}
	return m.spec.Concurrency
}

// estimator builds the spec's map-path estimator on a box: the test-run
// throughput estimator for transactional specs, the observed-counts
// estimator otherwise.
func (m *model) estimator(box *device.Box) (workload.Estimator, error) {
	cpu := time.Duration(m.spec.CPUMillis * float64(time.Millisecond))
	if m.spec.Txns > 0 {
		profiled := catalog.NewUniformLayout(m.cat, box.MostExpensive().Class)
		return workload.NewProfileEstimator(box, m.concurrency(), m.profile, cpu,
			workload.RunStats{
				Txns:    m.spec.Txns,
				Elapsed: time.Duration(m.spec.ElapsedMillis * float64(time.Millisecond)),
			}, profiled)
	}
	return &workload.ObservedEstimator{
		Box:         box,
		Concurrency: m.concurrency(),
		PerQuery:    []workload.QueryObservation{{Profile: m.profile, CPU: cpu}},
	}, nil
}

// input assembles the compiled-path core.Input the mirrored pipeline
// searches, under the harness's own worker budget.
func (m *model) input(box *device.Box, budget *search.Budget) (core.Input, error) {
	est, err := m.estimator(box)
	if err != nil {
		return core.Input{}, err
	}
	ps := core.NewProfileSet()
	ps.SetSingle(m.profile)
	return core.Input{
		Cat:         m.cat,
		Box:         box,
		Est:         workload.CompileEstimator(est, m.cat),
		Profiles:    ps,
		Concurrency: m.concurrency(),
		Budget:      budget,
	}, nil
}

// partitioning derives the heat-based partitioning from the declared
// extents: page boundaries come from cumulative byte offsets, and a slice
// too small to cross a page boundary folds its heat into its predecessor.
func (m *model) partitioning() (*catalog.Partitioning, error) {
	stats := catalog.ExtentStats{PageBytes: catalog.DefaultPageBytes, ByObject: make(map[catalog.ObjectID][]catalog.Extent)}
	for _, o := range m.spec.Objects {
		if len(o.Extents) == 0 {
			continue
		}
		id := m.cat.Lookup(o.Name).ID
		var offset, page int64
		for _, e := range o.Extents {
			offset += e.SizeBytes
			end := (offset + stats.PageBytes - 1) / stats.PageBytes
			exts := stats.ByObject[id]
			if end <= page {
				exts[len(exts)-1].Count += e.Heat
				continue
			}
			stats.ByObject[id] = append(exts, catalog.Extent{Pages: end - page, Count: e.Heat})
			page = end
		}
	}
	return catalog.BuildPartitioning(m.cat, stats, catalog.PartitionOptions{})
}

// resolveBox maps a wire box name onto its built-in configuration.
func resolveBox(name string) (*device.Box, error) {
	switch name {
	case "", "box1":
		return device.Box1(), nil
	case "box2":
		return device.Box2(), nil
	case "htap":
		return device.BoxHTAP(), nil
	}
	return nil, fmt.Errorf("box %q is not generated by this benchmark", name)
}

// objective turns a layout's storage cost rate and its estimated metrics
// into the TOC: cents per transaction for throughput workloads, cents per
// run otherwise (paper §2.1, §2.3).
func objective(centsPerHour float64, m workload.Metrics) float64 {
	if m.Throughput > 0 {
		return centsPerHour / m.Throughput
	}
	return centsPerHour * m.Elapsed.Hours()
}

// placement is one answer's layout in the checker's terms: how to estimate
// it, what it costs per hour and whether it fits, at either single-class
// or class-set placement.
type placement struct {
	est      workload.Estimator
	layout   catalog.Layout // class-valued, or mask-valued for class sets
	perHour  func(catalog.Layout) (float64, error)
	capacity func(catalog.Layout) error
}

// verdict is what checking one answer yields.
type verdict struct {
	// toc is the recomputed TOC of the recommendation; baseTOC the TOC of
	// everything on the box's most expensive class.
	toc, baseTOC float64
}

// judge re-estimates a recommendation on the map path and holds it to the
// advisor's contract: it fits, it meets the SLA relative to the
// all-on-the-most-expensive-class baseline, its reported TOC equals the
// recomputation bit for bit, and no feasible all-on-one-class layout is
// cheaper. uniform(c) lifts "everything on class c" into the placement's
// layout alphabet.
func (p placement) judge(box *device.Box, sla, reportedTOC float64, uniform func(device.Class) catalog.Layout) (verdict, error) {
	var v verdict
	if err := p.capacity(p.layout); err != nil {
		return v, fmt.Errorf("recommended layout over capacity: %w", err)
	}
	m, err := p.est.Estimate(p.layout)
	if err != nil {
		return v, err
	}
	l0 := uniform(box.MostExpensive().Class)
	base, err := p.est.Estimate(l0)
	if err != nil {
		return v, err
	}
	cons := workload.Constraints{Relative: sla, Baseline: base}
	if !cons.Satisfied(m) {
		return v, fmt.Errorf("recommended layout misses the relative SLA %g", sla)
	}
	ph, err := p.perHour(p.layout)
	if err != nil {
		return v, err
	}
	v.toc = objective(ph, m)
	if v.toc != reportedTOC {
		return v, fmt.Errorf("reported toc_cents %v differs from the map-path recomputation %v", reportedTOC, v.toc)
	}
	ph0, err := p.perHour(l0)
	if err != nil {
		return v, err
	}
	v.baseTOC = objective(ph0, base)
	for _, cls := range box.Classes() {
		u := uniform(cls)
		if p.capacity(u) != nil {
			continue
		}
		um, err := p.est.Estimate(u)
		if err != nil {
			return v, err
		}
		if !cons.Satisfied(um) {
			continue
		}
		uph, err := p.perHour(u)
		if err != nil {
			return v, err
		}
		if ut := objective(uph, um); v.toc > ut {
			return v, fmt.Errorf("recommended TOC %v exceeds the feasible all-on-%v layout's %v", v.toc, cls, ut)
		}
	}
	return v, nil
}

// namedLayout resolves an answer's name -> class map against the catalog
// the search ran on, requiring every unit exactly once.
func namedLayout(cat *catalog.Catalog, byName map[string]string) (catalog.Layout, error) {
	if len(byName) != cat.NumObjects() {
		return nil, fmt.Errorf("layout names %d units, the catalog has %d", len(byName), cat.NumObjects())
	}
	l := make(catalog.Layout, len(byName))
	for name, clsName := range byName {
		o := cat.Lookup(name)
		if o == nil {
			return nil, fmt.Errorf("layout names unknown unit %q", name)
		}
		cls, err := device.ParseClass(clsName)
		if err != nil {
			return nil, err
		}
		l[o.ID] = cls
	}
	return l, nil
}

// namedSetLayout is namedLayout for replicated answers.
func namedSetLayout(cat *catalog.Catalog, byName map[string][]string) (catalog.SetLayout, error) {
	if len(byName) != cat.NumObjects() {
		return nil, fmt.Errorf("replicas name %d units, the catalog has %d", len(byName), cat.NumObjects())
	}
	sl := make(catalog.SetLayout, len(byName))
	for name, copies := range byName {
		o := cat.Lookup(name)
		if o == nil {
			return nil, fmt.Errorf("replicas name unknown unit %q", name)
		}
		var set device.ClassSet
		for _, clsName := range copies {
			cls, err := device.ParseClass(clsName)
			if err != nil {
				return nil, err
			}
			set = set.Add(cls)
		}
		if !set.Valid() || set.Count() != len(copies) {
			return nil, fmt.Errorf("unit %q: invalid copy list %v", name, copies)
		}
		sl[o.ID] = set
	}
	return sl, nil
}

// maskLayout reinterprets a set layout as the mask-valued catalog.Layout
// the map-path set estimator reads.
func maskLayout(sl catalog.SetLayout) catalog.Layout {
	l := make(catalog.Layout, len(sl))
	for id, set := range sl {
		l[id] = device.Class(set)
	}
	return l
}

// setLayoutOf is maskLayout's inverse.
func setLayoutOf(l catalog.Layout) catalog.SetLayout {
	sl := make(catalog.SetLayout, len(l))
	for id, v := range l {
		sl[id] = device.ClassSet(v)
	}
	return sl
}

// checkAdvise independently verifies one /v1/advise answer against its
// request and returns the recomputed TOC pair.
func checkAdvise(reqBody, respBody []byte) (verdict, error) {
	var req serve.AdviseRequest
	var resp serve.AdviseResponse
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return verdict{}, err
	}
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return verdict{}, err
	}
	if !resp.Feasible {
		return verdict{}, fmt.Errorf("answer is infeasible: %s", resp.Failure)
	}
	box, err := resolveBox(req.Box)
	if err != nil {
		return verdict{}, err
	}
	m, err := buildModel(req.Workload)
	if err != nil {
		return verdict{}, err
	}
	est, err := m.estimator(box)
	if err != nil {
		return verdict{}, err
	}
	cat := m.cat
	if req.Granularity == "partition" {
		pt, err := m.partitioning()
		if err != nil {
			return verdict{}, err
		}
		if est, _, err = workload.PartitionEstimator(est, pt); err != nil {
			return verdict{}, err
		}
		cat = pt.UnitCatalog()
		if resp.Units != cat.NumObjects() {
			return verdict{}, fmt.Errorf("answer reports %d units, the partitioning has %d", resp.Units, cat.NumObjects())
		}
	}
	if !req.Replication {
		layout, err := namedLayout(cat, resp.Layout)
		if err != nil {
			return verdict{}, err
		}
		p := placement{
			est:      est,
			layout:   layout,
			perHour:  func(l catalog.Layout) (float64, error) { return l.CostCentsPerHour(cat, box) },
			capacity: func(l catalog.Layout) error { return l.CheckCapacity(cat, box) },
		}
		return p.judge(box, req.SLA, resp.TOCCents, func(c device.Class) catalog.Layout { return catalog.NewUniformLayout(cat, c) })
	}
	sl, err := namedSetLayout(cat, resp.Replicas)
	if err != nil {
		return verdict{}, err
	}
	for _, set := range sl {
		if req.MaxReplicas >= 1 && set.Count() > req.MaxReplicas {
			return verdict{}, fmt.Errorf("a unit holds %d copies, the request capped them at %d", set.Count(), req.MaxReplicas)
		}
	}
	setEst, ok := workload.NewSetEstimator(est)
	if !ok {
		return verdict{}, fmt.Errorf("estimator %T has no replica form", est)
	}
	p := placement{
		est:      setEst,
		layout:   maskLayout(sl),
		perHour:  func(l catalog.Layout) (float64, error) { return setLayoutOf(l).CostCentsPerHour(cat, box) },
		capacity: func(l catalog.Layout) error { return setLayoutOf(l).CheckCapacity(cat, box) },
	}
	return p.judge(box, req.SLA, resp.TOCCents, func(c device.Class) catalog.Layout {
		return maskLayout(catalog.NewUniformSetLayout(cat, device.Singleton(c)))
	})
}

// gridOf lowers a wire grid onto provision.Grid.
func gridOf(spec serve.GridSpec) (provision.Grid, error) {
	g := provision.Grid{Alphas: spec.Alphas, MaxClasses: spec.MaxClasses}
	for _, d := range spec.Devices {
		cls, err := device.ParseClass(d.Class)
		if err != nil {
			return provision.Grid{}, err
		}
		g.Devices = append(g.Devices, provision.DeviceOption{Class: cls, Counts: d.Counts})
	}
	return g, nil
}

// checkProvision independently verifies one /v1/provision answer: the
// winning candidate is re-priced under its own box and discrete-sized cost
// model, and must be the cheapest feasible candidate of the answer. The
// verdict's baseline prices everything on the grid's most expensive class
// at the winner's blend point.
func checkProvision(reqBody, respBody []byte) (verdict, error) {
	var req serve.ProvisionRequest
	var resp serve.ProvisionResponse
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return verdict{}, err
	}
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return verdict{}, err
	}
	grid, err := gridOf(req.Grid)
	if err != nil {
		return verdict{}, err
	}
	specs, err := grid.Enumerate()
	if err != nil {
		return verdict{}, err
	}
	if len(resp.Candidates) != len(specs) {
		return verdict{}, fmt.Errorf("answer carries %d candidates, the grid enumerates %d", len(resp.Candidates), len(specs))
	}
	if resp.Best < 0 || resp.Best >= len(specs) {
		return verdict{}, fmt.Errorf("no feasible candidate (best=%d)", resp.Best)
	}
	for i, c := range resp.Candidates {
		if c.Name != specs[i].Name {
			return verdict{}, fmt.Errorf("candidate %d is %q, the grid enumerates %q", i, c.Name, specs[i].Name)
		}
		if c.Feasible && (c.TOCCents < resp.Candidates[resp.Best].TOCCents || (c.TOCCents == resp.Candidates[resp.Best].TOCCents && i < resp.Best)) {
			return verdict{}, fmt.Errorf("candidate %d (%s) beats the reported best %d", i, c.Name, resp.Best)
		}
	}
	best := resp.Candidates[resp.Best]
	if !best.Feasible {
		return verdict{}, fmt.Errorf("best candidate %q is infeasible", best.Name)
	}
	m, err := buildModel(req.Workload)
	if err != nil {
		return verdict{}, err
	}
	universe := grid.Universe()
	est, err := m.estimator(universe)
	if err != nil {
		return verdict{}, err
	}
	layout, err := namedLayout(m.cat, best.Layout)
	if err != nil {
		return verdict{}, err
	}
	box := specs[resp.Best].Box()
	cost, err := provision.DiscreteCostModel(m.cat, box, best.Alpha)
	if err != nil {
		return verdict{}, err
	}
	p := placement{
		est:      est,
		layout:   layout,
		perHour:  cost,
		capacity: func(l catalog.Layout) error { return l.CheckCapacity(m.cat, box) },
	}
	v, err := p.judge(box, req.SLA, best.TOCCents, func(c device.Class) catalog.Layout { return catalog.NewUniformLayout(m.cat, c) })
	if err != nil {
		return v, fmt.Errorf("best candidate %q: %w", best.Name, err)
	}
	// The ratio's base must not depend on which box won: everything on the
	// grid's most expensive class, bought in whole units at the winner's
	// blend point.
	top := catalog.NewUniformLayout(m.cat, universe.MostExpensive().Class)
	topCost, err := provision.DiscreteCostModel(m.cat, universe, best.Alpha)
	if err != nil {
		return v, err
	}
	tm, err := est.Estimate(top)
	if err != nil {
		return v, err
	}
	ph, err := topCost(top)
	if err != nil {
		return v, err
	}
	v.baseTOC = objective(ph, tm)
	return v, nil
}
