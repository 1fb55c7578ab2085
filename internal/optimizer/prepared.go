package optimizer

import (
	"fmt"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/plan"
)

// Prepared is a query resolved against one optimizer's statistics:
// everything planning derives that does not depend on the layout — the
// query validated, each table's statistics, predicates, column list,
// filtered cardinality and candidate access paths (with the scan nodes
// themselves, which no layout changes), the join predicates incident to
// each table with their selectivities and probe indexes — plus the list of
// objects a plan resolves and the subset its cost can depend on. Plan then
// only prices the alternatives under one placement of those objects, so a
// caller that plans one query under many layouts (the DSS estimator, the
// profiling phase) prepares it once.
//
// A Prepared is immutable and safe for concurrent use. It belongs to the
// optimizer that built it: it holds that optimizer's TableInfos, so it is
// stale once the statistics are replaced (engine.Analyze builds a new
// optimizer rather than refreshing one).
type Prepared struct {
	query  *plan.Query
	opt    *Optimizer
	tables []prepTable // in the query's table order
	// objs lists every object Plan resolves, in resolution order: per table
	// its heap, then each of its indexes. A layout must place all of them on
	// classes of the box, whether or not a plan can read them — the
	// planner's long-standing preflight. missing is the error of the first
	// table without statistics; objs then stops before it.
	objs    []catalog.ObjectID
	missing error
	// relevant indexes objs: the heaps, and the indexes an access path or an
	// indexed nested-loop join can probe (those whose leading column carries
	// one of the query's predicates or join columns). No other object's
	// placement can change the plan or its estimate.
	relevant []int
	// groupNDV is the product of the group-by columns' distinct counts.
	groupNDV float64
}

// prepTable is one table of a prepared query.
type prepTable struct {
	ti    *TableInfo
	obj   int // the heap's index in objs
	preds []plan.Pred
	cols  []plan.ColRef
	rows  float64 // cardinality after the table's predicates
	// paths are the ways to produce the filtered rows: the sequential scan
	// first, then an index range scan per predicate whose column leads an
	// index, in predicate order — the order ties resolve in.
	paths []accessPath
	// edges are the query's join predicates incident to this table, in
	// the order the query lists them.
	edges []joinEdge
}

// ioCharge is n I/Os of one type on one object.
type ioCharge struct {
	obj int // index in objs
	id  catalog.ObjectID
	typ device.IOType
	n   float64
}

// accessPath is one costed way to scan a table: its node, its CPU time and
// the I/O it issues. Only the price of the I/O depends on the layout.
type accessPath struct {
	node plan.Node
	cpu  time.Duration
	io   []ioCharge
}

// joinEdge is a join predicate seen from one of its tables: the table on
// the other side, that side's column, this side's column, the predicate's
// selectivity, and — for the indexed nested-loop alternative — this table's
// index on its join column.
type joinEdge struct {
	other int // index in tables
	outer plan.ColRef
	inner string
	jsel  float64
	ix    *IndexInfo // nil: no index leads with inner
	ixObj int        // ix's index in objs
	// matches is the expected number of this table's rows per probe.
	matches float64
}

// Prepare validates the query and resolves it against the optimizer's
// current statistics. The result is only as fresh as those statistics:
// AddTable after Prepare leaves it describing the replaced table.
func (o *Optimizer) Prepare(q *plan.Query) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Prepared{query: q, opt: o, tables: make([]prepTable, 0, len(q.Tables)), groupNDV: 1}
	pos := make(map[string]int, len(q.Tables))
	isRelevant := map[catalog.ObjectID]bool{}
	for i, name := range q.Tables {
		ti, ok := o.Tables[name]
		if !ok {
			p.missing = fmt.Errorf("optimizer: no statistics for table %q (run Analyze)", name)
			return p, nil
		}
		pos[name] = i
		t := prepTable{ti: ti, obj: len(p.objs), preds: q.TablePreds(name), cols: allCols(ti)}
		p.objs = append(p.objs, ti.ID)
		isRelevant[ti.ID] = true
		for _, ix := range ti.Indexes {
			p.objs = append(p.objs, ix.ID)
		}
		p.tables = append(p.tables, t)
	}
	for i := range p.tables {
		t := &p.tables[i]
		p.prepareAccessPaths(t)
		for _, ap := range t.paths[1:] {
			isRelevant[ap.io[0].id] = true
		}
		for _, j := range q.Joins {
			var e joinEdge
			switch t.ti.Name {
			case j.RightTable:
				e = joinEdge{other: pos[j.LeftTable], outer: plan.ColRef{Table: j.LeftTable, Column: j.LeftColumn}, inner: j.RightColumn}
			case j.LeftTable:
				e = joinEdge{other: pos[j.RightTable], outer: plan.ColRef{Table: j.RightTable, Column: j.RightColumn}, inner: j.LeftColumn}
			default:
				continue
			}
			e.jsel = joinSelectivity(p.tables[e.other].ti, e.outer.Column, t.ti, e.inner)
			e.matches = t.ti.Rows * e.jsel
			if e.ix = t.ti.IndexOn(e.inner); e.ix != nil {
				e.ixObj = p.objOf(e.ix.ID)
				isRelevant[e.ix.ID] = true
			}
			t.edges = append(t.edges, e)
		}
	}
	for i, id := range p.objs {
		if isRelevant[id] {
			p.relevant = append(p.relevant, i)
		}
	}
	for _, g := range q.GroupBy {
		p.groupNDV *= o.Tables[g.Table].Col(g.Column).NDV
	}
	return p, nil
}

// objOf returns an object's index in objs.
func (p *Prepared) objOf(id catalog.ObjectID) int {
	for i, o := range p.objs {
		if o == id {
			return i
		}
	}
	panic(fmt.Sprintf("optimizer: object %d is not one the prepared query resolves", id))
}

func allCols(ti *TableInfo) []plan.ColRef {
	out := make([]plan.ColRef, 0, ti.Schema.Len())
	for _, col := range ti.Schema.Columns {
		out = append(out, plan.ColRef{Table: ti.Name, Column: col.Name})
	}
	return out
}

// prepareAccessPaths lists the ways to produce a table's filtered rows: a
// sequential scan, or an index range scan on any index whose leading column
// carries a predicate. Which is cheapest depends on the layout through the
// device service times (paper §3.5: the seq-vs-index decision flips between
// storage classes); the I/O counts, the CPU time and the nodes do not.
func (p *Prepared) prepareAccessPaths(t *prepTable) {
	ti, preds := t.ti, t.preds
	t.rows = ti.Rows * combinedSel(ti, preds)
	t.paths = append(t.paths, accessPath{
		node: &plan.SeqScan{Table: ti.Name, TableID: ti.ID, Filter: preds, Cols: t.cols, Rows: t.rows},
		cpu:  time.Duration(ti.Rows) * (plan.CPUTupleTime + time.Duration(len(preds))*plan.CPUPredTime),
		io:   []ioCharge{{obj: t.obj, id: ti.ID, typ: device.SeqRead, n: ti.Pages}},
	})
	for i, pr := range preds {
		ix := ti.IndexOn(pr.Column)
		if ix == nil {
			continue
		}
		rangeSel := clampSel(predSel(ti, pr))
		matched := ti.Rows * rangeSel
		residual := make([]plan.Pred, 0, len(preds)-1)
		residual = append(residual, preds[:i]...)
		residual = append(residual, preds[i+1:]...)
		t.paths = append(t.paths, accessPath{
			node: &plan.IndexScan{
				Table: ti.Name, TableID: ti.ID,
				Index: ix.Name, IndexID: ix.ID,
				Column: pr.Column, Op: pr.Op, Lo: pr.Lo, Hi: pr.Hi,
				Residual: residual, Cols: t.cols, Rows: t.rows,
			},
			cpu: time.Duration(matched) * (plan.CPUIndexTime + plan.CPUTupleTime +
				time.Duration(len(residual))*plan.CPUPredTime),
			io: []ioCharge{
				// Index descent plus the leaf pages the range covers.
				{obj: p.objOf(ix.ID), id: ix.ID, typ: device.RandRead, n: ix.Height + ix.LeafPages*rangeSel},
				// One random heap fetch per matching entry (tables are
				// unclustered; the paper shuffles them explicitly, §4.4).
				{obj: t.obj, id: ti.ID, typ: device.RandRead, n: matched},
			},
		})
	}
}

// Objects lists every object a plan of the query resolves — each table's
// heap followed by all of its indexes, in the query's table order. Callers
// must treat the slice as read-only.
func (p *Prepared) Objects() []catalog.ObjectID { return p.objs }

// Relevant indexes Objects: the objects whose placement the plan and its
// estimate can depend on — the heaps, and the indexes whose leading column
// carries one of the query's predicates or join columns. Two placements
// that agree on these (and are both valid for the rest) plan identically,
// which makes their classes a cache key for the plan's cost. Read-only.
func (p *Prepared) Relevant() []int { return p.relevant }

// Placements reads the class of every object of Objects through at,
// appending them to dst in that order, and reports what planning reports
// for a layout it cannot price: an object the layout leaves unplaced or
// puts on a class the box lacks, then a table without statistics.
func (p *Prepared) Placements(dst []device.Class, at func(catalog.ObjectID) (device.Class, bool)) ([]device.Class, error) {
	for _, id := range p.objs {
		cls, ok := at(id)
		if !ok {
			return nil, fmt.Errorf("optimizer: object %d not placed by layout", id)
		}
		if p.opt.Box.Device(cls) == nil {
			return nil, absentClass(id, cls)
		}
		dst = append(dst, cls)
	}
	return dst, p.missing
}
