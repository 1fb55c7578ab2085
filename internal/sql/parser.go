package sql

import (
	"fmt"
	"strconv"
	"strings"

	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// Stmt is a parsed SQL statement.
type Stmt interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (col type, ..., PRIMARY KEY (cols)).
type CreateTableStmt struct {
	Name       string
	Columns    []types.Column
	PrimaryKey []string
}

func (*CreateTableStmt) stmt() {}

// CreateIndexStmt is CREATE [UNIQUE] INDEX name ON table (cols).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

func (*CreateIndexStmt) stmt() {}

// InsertStmt is INSERT INTO table VALUES (...), (...).
type InsertStmt struct {
	Table string
	Rows  []types.Tuple
}

func (*InsertStmt) stmt() {}

// colRef is a possibly-qualified column reference.
type colRef struct {
	Table  string // empty when unqualified
	Column string
}

// selectItem is one projection item.
type selectItem struct {
	Star  bool
	Agg   plan.AggFunc
	IsAgg bool
	Col   colRef
}

// cond is one WHERE conjunct: either a predicate against a literal/range,
// or an equality between two column references (a join).
type cond struct {
	Left  colRef
	Op    plan.CmpOp
	Lo    types.Value
	Hi    types.Value
	Right *colRef // non-nil for join conditions
}

// SelectStmt is the parsed form of a SELECT block; Compile lowers it to a
// plan.Query once schemas are known.
type SelectStmt struct {
	Items   []selectItem
	Tables  []string
	Where   []cond
	GroupBy []colRef
	Limit   int
}

func (*SelectStmt) stmt() {}

// Parse parses a script of semicolon-separated statements.
func Parse(src string) ([]Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Stmt
	for !p.at(tokEOF, "") {
		if p.at(tokSymbol, ";") {
			p.next()
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.at(tokSymbol, ";") && !p.at(tokEOF, "") {
			return nil, p.errf("expected ';' after statement")
		}
	}
	return out, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(k tokenKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokenKind, text string) bool {
	if p.at(k, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, text string) (token, error) {
	if !p.at(k, text) {
		return token{}, p.errf("expected %q, found %q", text, p.cur().text)
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (at byte %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.at(tokKeyword, "CREATE"):
		return p.create()
	case p.at(tokKeyword, "INSERT"):
		return p.insert()
	case p.at(tokKeyword, "SELECT"):
		return p.selectStmt()
	default:
		return nil, p.errf("expected CREATE, INSERT or SELECT, found %q", p.cur().text)
	}
}

func (p *parser) create() (Stmt, error) {
	p.next() // CREATE
	unique := p.accept(tokKeyword, "UNIQUE")
	switch {
	case p.accept(tokKeyword, "TABLE"):
		if unique {
			return nil, p.errf("UNIQUE applies to indexes, not tables")
		}
		return p.createTable()
	case p.accept(tokKeyword, "INDEX"):
		return p.createIndex(unique)
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) identifier() (string, error) {
	if !p.at(tokIdent, "") {
		return "", p.errf("expected identifier, found %q", p.cur().text)
	}
	return p.next().text, nil
}

func (p *parser) createTable() (Stmt, error) {
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name}
	for {
		if p.accept(tokKeyword, "PRIMARY") {
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parenIdentList()
			if err != nil {
				return nil, err
			}
			st.PrimaryKey = cols
		} else {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			kind, err := p.columnType()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, types.Column{Name: col, Kind: kind})
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if len(st.Columns) == 0 {
		return nil, fmt.Errorf("sql: table %q has no columns", name)
	}
	return st, nil
}

func (p *parser) columnType() (types.Kind, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return 0, p.errf("expected a column type, found %q", t.text)
	}
	p.next()
	switch t.text {
	case "INT":
		return types.KindInt, nil
	case "FLOAT":
		return types.KindFloat, nil
	case "STRING", "TEXT":
		return types.KindString, nil
	case "DATE":
		return types.KindDate, nil
	default:
		return 0, p.errf("unknown column type %q", t.text)
	}
}

func (p *parser) parenIdentList() ([]string, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.identifier()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) createIndex(unique bool) (Stmt, error) {
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.identifier()
	if err != nil {
		return nil, err
	}
	cols, err := p.parenIdentList()
	if err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Columns: cols, Unique: unique}, nil
}

func (p *parser) insert() (Stmt, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row types.Tuple
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) literal() (types.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return types.Value{}, p.errf("bad number %q", t.text)
			}
			return types.NewFloat(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return types.Value{}, p.errf("bad number %q", t.text)
		}
		return types.NewInt(n), nil
	case tokString:
		p.next()
		return types.NewString(t.text), nil
	case tokKeyword:
		if t.text == "DATE" {
			p.next()
			d := p.cur()
			if d.kind != tokNumber {
				return types.Value{}, p.errf("expected day number after DATE")
			}
			p.next()
			n, err := strconv.ParseInt(d.text, 10, 64)
			if err != nil {
				return types.Value{}, p.errf("bad date %q", d.text)
			}
			return types.NewDate(n), nil
		}
	}
	return types.Value{}, p.errf("expected a literal, found %q", t.text)
}

func (p *parser) colRef() (colRef, error) {
	first, err := p.identifier()
	if err != nil {
		return colRef{}, err
	}
	if p.accept(tokSymbol, ".") {
		col, err := p.identifier()
		if err != nil {
			return colRef{}, err
		}
		return colRef{Table: first, Column: col}, nil
	}
	return colRef{Column: first}, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	p.next() // SELECT
	st := &SelectStmt{}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		t, err := p.identifier()
		if err != nil {
			return nil, err
		}
		st.Tables = append(st.Tables, t)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.accept(tokKeyword, "WHERE") {
		for {
			c, err := p.condition()
			if err != nil {
				return nil, err
			}
			st.Where = append(st.Where, c)
			if p.accept(tokKeyword, "AND") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.colRef()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, c)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errf("expected a number after LIMIT")
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		st.Limit = n
	}
	return st, nil
}

func (p *parser) selectItem() (selectItem, error) {
	t := p.cur()
	if t.kind == tokSymbol && t.text == "*" {
		p.next()
		return selectItem{Star: true}, nil
	}
	if t.kind == tokKeyword {
		var fn plan.AggFunc
		switch t.text {
		case "COUNT":
			fn = plan.Count
		case "SUM":
			fn = plan.Sum
		case "MIN":
			fn = plan.Min
		case "MAX":
			fn = plan.Max
		case "AVG":
			fn = plan.Avg
		default:
			return selectItem{}, p.errf("unexpected keyword %q in select list", t.text)
		}
		p.next()
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return selectItem{}, err
		}
		item := selectItem{IsAgg: true, Agg: fn}
		if p.accept(tokSymbol, "*") {
			if fn != plan.Count {
				return selectItem{}, p.errf("only COUNT accepts *")
			}
		} else {
			c, err := p.colRef()
			if err != nil {
				return selectItem{}, err
			}
			item.Col = c
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return selectItem{}, err
		}
		return item, nil
	}
	c, err := p.colRef()
	if err != nil {
		return selectItem{}, err
	}
	return selectItem{Col: c}, nil
}

func (p *parser) condition() (cond, error) {
	left, err := p.colRef()
	if err != nil {
		return cond{}, err
	}
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.literal()
		if err != nil {
			return cond{}, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return cond{}, err
		}
		hi, err := p.literal()
		if err != nil {
			return cond{}, err
		}
		return cond{Left: left, Op: plan.Between, Lo: lo, Hi: hi}, nil
	}
	t := p.cur()
	if t.kind != tokSymbol {
		return cond{}, p.errf("expected a comparison operator, found %q", t.text)
	}
	var op plan.CmpOp
	switch t.text {
	case "=":
		op = plan.Eq
	case "<":
		op = plan.Lt
	case "<=":
		op = plan.Le
	case ">":
		op = plan.Gt
	case ">=":
		op = plan.Ge
	default:
		return cond{}, p.errf("unknown operator %q", t.text)
	}
	p.next()
	// Equality against another column reference is a join condition.
	if op == plan.Eq && p.at(tokIdent, "") {
		// Lookahead: ident followed by '.' means a qualified column; a bare
		// ident is ambiguous with nothing, since literals are numbers or
		// quoted strings — so any ident here is a column.
		right, err := p.colRef()
		if err != nil {
			return cond{}, err
		}
		return cond{Left: left, Op: plan.Eq, Right: &right}, nil
	}
	v, err := p.literal()
	if err != nil {
		return cond{}, err
	}
	return cond{Left: left, Op: op, Lo: v}, nil
}
