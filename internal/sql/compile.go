package sql

import (
	"fmt"

	"dotprov/internal/engine"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// SchemaSource resolves a table name to its schema during compilation.
// *engine.DB satisfies it.
type SchemaSource interface {
	TableSchema(name string) *types.Schema
}

// Compile lowers a parsed SELECT into the engine's query IR, resolving
// unqualified column references against the FROM tables' schemas.
// Plain (non-aggregate) select items act as documentation only: the engine
// emits whole rows, so projections are accepted and recorded in the query
// name but not enforced.
func Compile(sel *SelectStmt, src SchemaSource, name string) (*plan.Query, error) {
	if name == "" {
		name = "sql-query"
	}
	schemas := make(map[string]*types.Schema, len(sel.Tables))
	for _, t := range sel.Tables {
		sch := src.TableSchema(t)
		if sch == nil {
			return nil, fmt.Errorf("sql: unknown table %q", t)
		}
		schemas[t] = sch
	}
	resolve := func(c colRef) (plan.ColRef, error) {
		if c.Table != "" {
			sch, ok := schemas[c.Table]
			if !ok {
				return plan.ColRef{}, fmt.Errorf("sql: table %q not in FROM clause", c.Table)
			}
			if sch.ColIndex(c.Column) < 0 {
				return plan.ColRef{}, fmt.Errorf("sql: table %q has no column %q", c.Table, c.Column)
			}
			return plan.ColRef{Table: c.Table, Column: c.Column}, nil
		}
		owner := ""
		for _, t := range sel.Tables {
			if schemas[t].ColIndex(c.Column) >= 0 {
				if owner != "" {
					return plan.ColRef{}, fmt.Errorf("sql: column %q is ambiguous (%s and %s)", c.Column, owner, t)
				}
				owner = t
			}
		}
		if owner == "" {
			return plan.ColRef{}, fmt.Errorf("sql: no table in FROM has column %q", c.Column)
		}
		return plan.ColRef{Table: owner, Column: c.Column}, nil
	}

	q := &plan.Query{Name: name, Tables: sel.Tables, Limit: sel.Limit}
	for _, c := range sel.Where {
		left, err := resolve(c.Left)
		if err != nil {
			return nil, err
		}
		if c.Right != nil {
			right, err := resolve(*c.Right)
			if err != nil {
				return nil, err
			}
			if left.Table == right.Table {
				return nil, fmt.Errorf("sql: same-table column equality %s = %s not supported", left, right)
			}
			q.Joins = append(q.Joins, plan.EquiJoin{
				LeftTable: left.Table, LeftColumn: left.Column,
				RightTable: right.Table, RightColumn: right.Column,
			})
			continue
		}
		q.Preds = append(q.Preds, plan.Pred{
			Table: left.Table, Column: left.Column,
			Op: c.Op, Lo: c.Lo, Hi: c.Hi,
		})
	}
	for _, item := range sel.Items {
		if item.Star {
			continue
		}
		if !item.IsAgg {
			if _, err := resolve(item.Col); err != nil {
				return nil, err
			}
			continue
		}
		agg := plan.Agg{Func: item.Agg}
		if item.Col.Column != "" {
			ref, err := resolve(item.Col)
			if err != nil {
				return nil, err
			}
			agg.Table, agg.Column = ref.Table, ref.Column
		}
		q.Aggs = append(q.Aggs, agg)
	}
	for _, g := range sel.GroupBy {
		ref, err := resolve(g)
		if err != nil {
			return nil, err
		}
		q.GroupBy = append(q.GroupBy, ref)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// Exec applies a script of DDL and INSERT statements to the database
// (uncharged bulk operations) and returns any SELECTs compiled to queries.
// It is the loading path for user-supplied workload files.
func Exec(db *engine.DB, script string) ([]*plan.Query, error) {
	stmts, err := Parse(script)
	if err != nil {
		return nil, err
	}
	var queries []*plan.Query
	for i, s := range stmts {
		switch st := s.(type) {
		case *CreateTableStmt:
			if _, err := db.CreateTable(st.Name, types.NewSchema(st.Columns...), st.PrimaryKey); err != nil {
				return nil, err
			}
		case *CreateIndexStmt:
			if _, err := db.CreateIndex(st.Name, st.Table, st.Columns, st.Unique); err != nil {
				return nil, err
			}
		case *InsertStmt:
			sch := db.TableSchema(st.Table)
			for _, row := range st.Rows {
				coerceIntLiterals(sch, row)
				if err := db.Load(st.Table, row); err != nil {
					return nil, err
				}
			}
		case *SelectStmt:
			q, err := Compile(st, db, fmt.Sprintf("q%d", i+1))
			if err != nil {
				return nil, err
			}
			queries = append(queries, q)
		default:
			return nil, fmt.Errorf("sql: unsupported statement %T", s)
		}
	}
	return queries, nil
}

// coerceIntLiterals converts, in place, each INT literal in row whose
// column is FLOAT (to that number) or DATE (to that day number): SQL takes
// `39` for a price and `17` for a date. Every other mismatch, and a row
// for an unknown table (sch nil), is left for the engine to refuse.
func coerceIntLiterals(sch *types.Schema, row types.Tuple) {
	if sch == nil {
		return
	}
	for i, v := range row {
		if v.Kind != types.KindInt || i >= len(sch.Columns) {
			continue
		}
		switch sch.Columns[i].Kind {
		case types.KindFloat:
			row[i] = types.NewFloat(float64(v.Int))
		case types.KindDate:
			row[i] = types.NewDate(v.Int)
		}
	}
}

// ParseWorkload compiles a script of SELECT statements (only) against an
// already-built database into a query list, preserving order.
func ParseWorkload(db *engine.DB, script string) ([]*plan.Query, error) {
	stmts, err := Parse(script)
	if err != nil {
		return nil, err
	}
	var queries []*plan.Query
	for i, s := range stmts {
		sel, ok := s.(*SelectStmt)
		if !ok {
			return nil, fmt.Errorf("sql: workload statement %d is %T, want SELECT", i+1, s)
		}
		q, err := Compile(sel, db, fmt.Sprintf("q%d", i+1))
		if err != nil {
			return nil, err
		}
		queries = append(queries, q)
	}
	return queries, nil
}
