// Package plan defines the engine's query representation: a structured
// logical query (tables, predicates, equi-joins, aggregates), the physical
// plan nodes the optimizer produces, and the CPU cost constants shared by
// the optimizer's estimates and the executor's charging so that estimated
// and measured times are mutually consistent.
//
// A Query is declarative — which tables, which predicates, which joins,
// which aggregates — and is what workloads are written in (the TPC-H/TPC-C
// substrates and the SQL front end both compile to it). A Plan is the
// optimizer's executable answer: a tree of physical nodes (Node) with the
// chosen access paths and join algorithms, plus the per-plan cost estimate
// (Est) whose I/O profile is the estimator's unit of currency. Queries
// validate themselves (Check) so malformed workloads fail before planning.
//
// The CPU constants at the bottom of this package are the single source of
// truth for compute costs: the optimizer prices plans with them and the
// executor charges them per tuple at runtime, which is why estimated and
// measured elapsed times are comparable without calibration fudge.
package plan

import (
	"fmt"
	"math"
	"strings"

	"dotprov/internal/types"
)

// CmpOp is a comparison operator in a table predicate.
type CmpOp uint8

// The comparison operators predicates support.
const (
	Eq CmpOp = iota
	Lt
	Le
	Gt
	Ge
	Between // Lo <= col <= Hi
)

// String renders the operator in SQL spelling.
func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Between:
		return "between"
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(o))
	}
}

// Pred is a single-table predicate: column op constant (or a range for
// Between). The optimizer uses preds both for selectivity estimation and
// index-range derivation; the executor evaluates them on decoded tuples.
type Pred struct {
	Table  string
	Column string
	Op     CmpOp
	Lo     types.Value
	Hi     types.Value // Between only
}

// Matches evaluates the predicate against a value of the referenced column.
func (p Pred) Matches(v types.Value) bool {
	c := types.Compare(v, p.Lo)
	switch p.Op {
	case Eq:
		return c == 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	case Between:
		return c >= 0 && types.Compare(v, p.Hi) <= 0
	default:
		return false
	}
}

// IntRange returns the inclusive range [lo, hi] of the integers an int or
// date value must hold to match, when the predicate's bounds are ints or
// dates (ok is false otherwise). For such a value v, Matches(v) is exactly
// lo <= v.Int && v.Int <= hi, so a scan can filter an integer column on its
// words alone. An empty range has lo > hi.
func (p Pred) IntRange() (lo, hi int64, ok bool) {
	integral := func(v types.Value) bool { return v.Kind == types.KindInt || v.Kind == types.KindDate }
	if !integral(p.Lo) || p.Op == Between && !integral(p.Hi) {
		return 0, 0, false
	}
	v := p.Lo.Int
	switch p.Op {
	case Eq:
		return v, v, true
	case Lt:
		if v == math.MinInt64 {
			return 1, 0, true
		}
		return math.MinInt64, v - 1, true
	case Le:
		return math.MinInt64, v, true
	case Gt:
		if v == math.MaxInt64 {
			return 1, 0, true
		}
		return v + 1, math.MaxInt64, true
	case Ge:
		return v, math.MaxInt64, true
	case Between:
		return v, p.Hi.Int, true
	default:
		return 1, 0, true
	}
}

// String renders the predicate.
func (p Pred) String() string {
	if p.Op == Between {
		return fmt.Sprintf("%s.%s between %v and %v", p.Table, p.Column, p.Lo, p.Hi)
	}
	return fmt.Sprintf("%s.%s %v %v", p.Table, p.Column, p.Op, p.Lo)
}

// EquiJoin is an equality join predicate between two tables.
type EquiJoin struct {
	LeftTable   string
	LeftColumn  string
	RightTable  string
	RightColumn string
}

// String renders the join predicate.
func (j EquiJoin) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn)
}

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// The supported aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Min
	Max
	Avg
)

// String renders the function in SQL spelling.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// Agg is an aggregate over the join result. Count ignores the column.
type Agg struct {
	Func   AggFunc
	Table  string
	Column string
}

// ColRef names a column of a specific table.
type ColRef struct {
	Table  string
	Column string
}

// String renders the column reference.
func (c ColRef) String() string { return c.Table + "." + c.Column }

// Query is the structured logical query the optimizer plans: a conjunctive
// select-project-join block with optional grouping, aggregation and limit —
// the fragment the TPC-H templates in this reproduction are expressed in.
type Query struct {
	Name    string
	Tables  []string
	Preds   []Pred
	Joins   []EquiJoin
	GroupBy []ColRef
	Aggs    []Agg
	Limit   int // 0 means no limit
}

// HasTable reports whether the query references the table.
func (q *Query) HasTable(name string) bool {
	for _, t := range q.Tables {
		if t == name {
			return true
		}
	}
	return false
}

// TablePreds returns the predicates restricted to one table.
func (q *Query) TablePreds(name string) []Pred {
	var out []Pred
	for _, p := range q.Preds {
		if p.Table == name {
			out = append(out, p)
		}
	}
	return out
}

// Validate checks structural consistency: every pred/join/agg references a
// table in the FROM list.
func (q *Query) Validate() error {
	has := func(t string) bool { return q.HasTable(t) }
	if len(q.Tables) == 0 {
		return fmt.Errorf("plan: query %q has no tables", q.Name)
	}
	seen := map[string]bool{}
	for _, t := range q.Tables {
		if seen[t] {
			return fmt.Errorf("plan: query %q lists table %q twice", q.Name, t)
		}
		seen[t] = true
	}
	for _, p := range q.Preds {
		if !has(p.Table) {
			return fmt.Errorf("plan: query %q: predicate on unknown table %q", q.Name, p.Table)
		}
	}
	for _, j := range q.Joins {
		if !has(j.LeftTable) || !has(j.RightTable) {
			return fmt.Errorf("plan: query %q: join %v references unknown table", q.Name, j)
		}
		if j.LeftTable == j.RightTable {
			return fmt.Errorf("plan: query %q: self-join %v not supported", q.Name, j)
		}
	}
	for _, g := range q.GroupBy {
		if !has(g.Table) {
			return fmt.Errorf("plan: query %q: group-by on unknown table %q", q.Name, g.Table)
		}
	}
	for _, a := range q.Aggs {
		if a.Func != Count && !has(a.Table) {
			return fmt.Errorf("plan: query %q: aggregate on unknown table %q", q.Name, a.Table)
		}
	}
	return nil
}

// String renders a compact SQL-ish description of the query.
func (q *Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "select")
	if len(q.Aggs) == 0 {
		b.WriteString(" *")
	}
	for i, a := range q.Aggs {
		if i > 0 {
			b.WriteByte(',')
		}
		if a.Func == Count && a.Column == "" {
			b.WriteString(" count(*)")
		} else {
			fmt.Fprintf(&b, " %v(%s.%s)", a.Func, a.Table, a.Column)
		}
	}
	fmt.Fprintf(&b, " from %s", strings.Join(q.Tables, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, p := range q.Preds {
		conds = append(conds, p.String())
	}
	if len(conds) > 0 {
		fmt.Fprintf(&b, " where %s", strings.Join(conds, " and "))
	}
	if len(q.GroupBy) > 0 {
		var gs []string
		for _, g := range q.GroupBy {
			gs = append(gs, g.String())
		}
		fmt.Fprintf(&b, " group by %s", strings.Join(gs, ", "))
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " limit %d", q.Limit)
	}
	return b.String()
}
