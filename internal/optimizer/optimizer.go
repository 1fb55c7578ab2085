package optimizer

import (
	"fmt"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/plan"
)

// Optimizer plans queries against a box of storage devices. Tables register
// their statistics (engine.Analyze feeds them); Prepare and Plan are then
// pure readers of those statistics — all per-call state lives on the
// planning call's stack — so they are safe for repeated AND concurrent use
// across candidate layouts (the search engine's worker pool relies on
// this). AddTable must not be called concurrently with either.
type Optimizer struct {
	Box         *device.Box
	Concurrency int
	Tables      map[string]*TableInfo
}

// New creates an optimizer for a box at a given degree of concurrency.
func New(box *device.Box, concurrency int) *Optimizer {
	if concurrency < 1 {
		concurrency = 1
	}
	return &Optimizer{Box: box, Concurrency: concurrency, Tables: make(map[string]*TableInfo)}
}

// AddTable registers or replaces a table's statistics.
func (o *Optimizer) AddTable(ti *TableInfo) { o.Tables[ti.Name] = ti }

// predSel estimates the selectivity of one predicate.
func predSel(ti *TableInfo, pr plan.Pred) float64 {
	st := ti.Col(pr.Column)
	switch pr.Op {
	case plan.Eq:
		return st.eqSelectivity()
	case plan.Lt, plan.Le:
		if st.HasRange {
			if f := st.rangeFraction(st.Min, pr.Lo); f >= 0 {
				return f
			}
		}
		return defaultRangeSel
	case plan.Gt, plan.Ge:
		if st.HasRange {
			if f := st.rangeFraction(pr.Lo, st.Max); f >= 0 {
				return f
			}
		}
		return defaultRangeSel
	case plan.Between:
		if st.HasRange {
			if f := st.rangeFraction(pr.Lo, pr.Hi); f >= 0 {
				return f
			}
		}
		return defaultBetweenSel
	default:
		return 1
	}
}

func combinedSel(ti *TableInfo, preds []plan.Pred) float64 {
	s := 1.0
	for _, pr := range preds {
		s *= predSel(ti, pr)
	}
	return clampSel(s)
}

// joinSelectivity follows the classical 1/max(ndv_left, ndv_right) rule.
func joinSelectivity(lt *TableInfo, lcol string, rt *TableInfo, rcol string) float64 {
	ln := lt.Col(lcol).NDV
	rn := rt.Col(rcol).NDV
	n := ln
	if rn > n {
		n = rn
	}
	if n < 1 {
		n = 1
	}
	return clampSel(1 / n)
}

// Plan produces the cheapest physical plan for the query under the given
// layout, together with its Estimate (rows, per-object I/O profile, I/O and
// CPU time). It is Prepare followed by the prepared query's Plan; callers
// that plan one query under many layouts keep the Prepared.
func (o *Optimizer) Plan(q *plan.Query, layout catalog.Layout) (*plan.Plan, error) {
	p, err := o.Prepare(q)
	if err != nil {
		return nil, err
	}
	var buf [16]device.Class
	classes, err := p.Placements(buf[:0], func(id catalog.ObjectID) (device.Class, bool) {
		cls, ok := layout[id]
		return cls, ok
	})
	if err != nil {
		return nil, err
	}
	return p.Plan(classes)
}

func absentClass(id catalog.ObjectID, cls device.Class) error {
	return fmt.Errorf("optimizer: layout places object %d on class %v absent from box", id, cls)
}

// cost is what a sub-plan is compared on. Durations are integers, so the
// sums that build one are exact in any order; rows multiply in join order.
type cost struct {
	rows float64
	io   time.Duration
	cpu  time.Duration
}

func (c cost) time() time.Duration { return c.io + c.cpu }

// planner is the per-call state: the box's service-time table, resolved
// once per plan.
type planner struct {
	classes []device.Class
	svc     [device.NumClasses][device.NumIOTypes]time.Duration
}

// price is the time of n I/Os of type t on the object at index obj of the
// prepared query's object list. Counts that are not positive cost nothing
// and leave no trace in the profile.
func (pl *planner) price(obj int, t device.IOType, n float64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(n * float64(pl.svc[pl.classes[obj]][t]))
}

// Plan produces the cheapest physical plan under one placement: classes[i]
// is the class of Objects()[i], as Placements returns them (which is also
// where a placement the box cannot serve is reported). Alternatives are
// compared on scalar costs; the plan node, the joined-table set and the I/O
// profile are built only for the alternative that wins each step.
func (p *Prepared) Plan(classes []device.Class) (*plan.Plan, error) {
	if p.missing != nil {
		return nil, p.missing
	}
	if len(classes) != len(p.objs) {
		return nil, fmt.Errorf("optimizer: query %q resolves %d objects, placement gives %d", p.query.Name, len(p.objs), len(classes))
	}
	o, q := p.opt, p.query
	carried := o.Box.Carried()
	for i, cls := range classes {
		if !carried.Has(cls) {
			return nil, absentClass(p.objs[i], cls)
		}
	}
	pl := &planner{classes: classes, svc: o.Box.ServiceTimes(o.Concurrency)}

	// Best access path per table, computed once: joins below reuse it for
	// every alternative that attaches the table.
	n := len(p.tables)
	tabs := make([]struct {
		path   *accessPath
		cost   cost
		joined bool
	}, n)
	for i := range p.tables {
		t := &p.tables[i]
		for k := range t.paths {
			ap := &t.paths[k]
			c := cost{rows: t.rows, cpu: ap.cpu}
			for _, ch := range ap.io {
				c.io += pl.price(ch.obj, ch.typ, ch.n)
			}
			if k == 0 || c.time() < tabs[i].cost.time() {
				tabs[i].path, tabs[i].cost = ap, c
			}
		}
	}

	// Greedy left-deep join enumeration: start from the most selective
	// table, then repeatedly attach the connected table that minimises the
	// accumulated time, choosing HJ or INLJ per step.
	start := 0
	for i := 1; i < n; i++ {
		if c, s := tabs[i].cost, tabs[start].cost; c.rows < s.rows || (c.rows == s.rows && c.time() < s.time()) {
			start = i
		}
	}
	cur := tabs[start].cost
	node := tabs[start].path.node
	profile := iosim.NewProfile()
	charge := func(id catalog.ObjectID, t device.IOType, n float64) {
		if n > 0 {
			profile.Add(id, t, n)
		}
	}
	for _, ch := range tabs[start].path.io {
		charge(ch.id, ch.typ, ch.n)
	}
	tabs[start].joined = true

	for left := n - 1; left > 0; left-- {
		var (
			best     cost
			bestT    = -1
			bestEdge *joinEdge
			bestINLJ bool
		)
		for i := range p.tables {
			if tabs[i].joined {
				continue
			}
			t := &p.tables[i]
			// The first join predicate linking the joined set to the table.
			var e *joinEdge
			for k := range t.edges {
				if tabs[t.edges[k].other].joined {
					e = &t.edges[k]
					break
				}
			}
			if e == nil {
				continue
			}
			c, inlj := pl.join(cur, t, tabs[i].cost, e)
			if bestT < 0 || c.time() < best.time() {
				best, bestT, bestEdge, bestINLJ = c, i, e, inlj
			}
		}
		if bestT < 0 {
			return nil, fmt.Errorf("optimizer: query %q has a disconnected join graph", q.Name)
		}
		t, e := &p.tables[bestT], bestEdge
		j := &plan.Join{Algo: plan.HashJoin, Outer: node, OuterCol: e.outer, Rows: best.rows}
		if bestINLJ {
			j.Algo = plan.IndexNLJoin
			j.InnerTable, j.InnerTableID = t.ti.Name, t.ti.ID
			j.InnerIndex, j.InnerIndexID = e.ix.Name, e.ix.ID
			j.InnerResidual, j.InnerCols = t.preds, t.cols
			charge(e.ix.ID, device.RandRead, cur.rows*e.ix.Height)
			charge(t.ti.ID, device.RandRead, cur.rows*e.matches)
		} else {
			j.Inner, j.InnerCol = tabs[bestT].path.node, plan.ColRef{Table: t.ti.Name, Column: e.inner}
			for _, ch := range tabs[bestT].path.io {
				charge(ch.id, ch.typ, ch.n)
			}
		}
		node, cur = j, best
		tabs[bestT].joined = true
	}

	root := node
	rows := cur.rows
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		groups := p.groupNDV
		if groups > rows {
			groups = rows
		}
		if groups < 1 {
			groups = 1
		}
		cur.cpu += time.Duration(rows) * (plan.CPUAggTime*time.Duration(max1(len(q.Aggs))) + plan.CPUHashTime)
		root = &plan.AggNode{Input: root, GroupBy: q.GroupBy, Aggs: q.Aggs, Rows: groups}
		rows = groups
	}
	if q.Limit > 0 {
		root = &plan.LimitNode{Input: root, N: q.Limit}
		if float64(q.Limit) < rows {
			rows = float64(q.Limit)
		}
	}

	return &plan.Plan{
		Query: q,
		Root:  root,
		Est: plan.Estimate{
			Rows:    rows,
			Profile: profile,
			IOTime:  cur.io,
			CPUTime: cur.cpu,
		},
	}, nil
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// join costs the ways to attach table t (best access path cost path) to the
// current result through edge e and returns the cheapest, and whether it is
// the indexed nested-loop join: a hash join building on the new table's
// filtered rows, or — when the table has an index on its join column — one
// index probe per outer row. (Building the hash table on the accumulated
// side instead costs exactly the same under this model — build and probe
// are priced alike and integer sums commute — so it is not a separate
// alternative.)
func (pl *planner) join(cur cost, t *prepTable, path cost, e *joinEdge) (cost, bool) {
	outRows := cur.rows * path.rows * e.jsel
	if outRows < 0.01 {
		outRows = 0.01
	}
	best := cost{
		rows: outRows,
		io:   cur.io + path.io,
		cpu: cur.cpu + path.cpu +
			time.Duration(path.rows)*plan.CPUHashTime + // build
			time.Duration(cur.rows)*plan.CPUHashTime + // probe
			time.Duration(outRows)*plan.CPUTupleTime,
	}
	if e.ix == nil {
		return best, false
	}
	probes := cur.rows
	inlj := cost{
		rows: outRows,
		io: cur.io +
			pl.price(e.ixObj, device.RandRead, probes*e.ix.Height) +
			pl.price(t.obj, device.RandRead, probes*e.matches),
		cpu: cur.cpu +
			time.Duration(probes)*plan.CPUIndexTime +
			time.Duration(probes*e.matches)*
				(plan.CPUTupleTime+time.Duration(len(t.preds))*plan.CPUPredTime),
	}
	if inlj.time() < best.time() {
		return inlj, true
	}
	return best, false
}
