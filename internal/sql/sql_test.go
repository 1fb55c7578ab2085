package sql

import (
	"strings"
	"testing"
	"testing/quick"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT count(*) FROM t WHERE a >= 10 AND s = 'it''s' -- comment\n;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, " ")
	for _, frag := range []string{"SELECT", "COUNT", "t", ">=", "10", "it's", ";"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("tokens missing %q: %v", frag, texts)
		}
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("select @"); err == nil {
		t.Error("unexpected character should fail")
	}
	if _, err := lex("select 'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestParseCreateTable(t *testing.T) {
	stmts, err := Parse(`
		CREATE TABLE orders (
			o_id INT,
			o_total FLOAT,
			o_status STRING,
			o_date DATE,
			PRIMARY KEY (o_id)
		);`)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := stmts[0].(*CreateTableStmt)
	if !ok {
		t.Fatalf("got %T", stmts[0])
	}
	if ct.Name != "orders" || len(ct.Columns) != 4 {
		t.Fatalf("parsed: %+v", ct)
	}
	wantKinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate}
	for i, k := range wantKinds {
		if ct.Columns[i].Kind != k {
			t.Errorf("column %d kind = %v, want %v", i, ct.Columns[i].Kind, k)
		}
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "o_id" {
		t.Errorf("pk = %v", ct.PrimaryKey)
	}
}

func TestParseCreateIndex(t *testing.T) {
	stmts, err := Parse(`CREATE UNIQUE INDEX idx ON orders (o_id, o_date);`)
	if err != nil {
		t.Fatal(err)
	}
	ci := stmts[0].(*CreateIndexStmt)
	if !ci.Unique || ci.Table != "orders" || len(ci.Columns) != 2 {
		t.Fatalf("parsed: %+v", ci)
	}
}

func TestParseInsert(t *testing.T) {
	stmts, err := Parse(`INSERT INTO t VALUES (1, 2.5, 'x', DATE 9000), (-2, 0.0, '', DATE 1);`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmts[0].(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Rows[0]) != 4 {
		t.Fatalf("parsed: %+v", ins)
	}
	if ins.Rows[0][0].Int != 1 || ins.Rows[0][1].F != 2.5 || ins.Rows[0][3].Kind != types.KindDate {
		t.Fatalf("row values wrong: %v", ins.Rows[0])
	}
	if ins.Rows[1][0].Int != -2 {
		t.Fatalf("negative literal wrong: %v", ins.Rows[1][0])
	}
}

func TestParseSelectFull(t *testing.T) {
	sel, err := ParseQuery(`
		SELECT count(*), sum(l.price)
		FROM orders, l
		WHERE orders.o_id = l.o_id
		  AND o_date BETWEEN DATE 100 AND DATE 200
		  AND l.qty < 24
		GROUP BY orders.o_status
		LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Items) != 2 || !sel.Items[0].IsAgg {
		t.Fatalf("items: %+v", sel.Items)
	}
	if len(sel.Tables) != 2 || len(sel.Where) != 3 || sel.Limit != 10 {
		t.Fatalf("parsed: %+v", sel)
	}
	if sel.Where[0].Right == nil {
		t.Fatal("first condition should be a join")
	}
	if sel.Where[1].Op != plan.Between {
		t.Fatal("second condition should be BETWEEN")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"DROP TABLE t;",
		"SELECT FROM t;",
		"SELECT * t;",
		"CREATE TABLE t ();",
		"CREATE UNIQUE TABLE t (a INT);",
		"INSERT INTO t VALUES 1;",
		"SELECT * FROM t WHERE a ! 1;",
		"SELECT * FROM t LIMIT x;",
		"SELECT sum(*) FROM t;",
		"SELECT * FROM t WHERE a BETWEEN 1;",
		"SELECT * FROM t; garbage",
		"CREATE TABLE t (a BLOB);",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Property: the lexer never panics and either errors or terminates with
// EOF for arbitrary input.
func TestLexerTotalProperty(t *testing.T) {
	f := func(s string) bool {
		toks, err := lex(s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].kind == tokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func newSQLDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(device.Box1(), 128)
	queries, err := Exec(db, `
		CREATE TABLE users (id INT, name STRING, age INT, PRIMARY KEY (id));
		CREATE TABLE orders (o_id INT, user_id INT, total FLOAT, PRIMARY KEY (o_id));
		CREATE INDEX orders_user ON orders (user_id);
		INSERT INTO users VALUES (1, 'ann', 30), (2, 'bob', 40), (3, 'cam', 30);
		INSERT INTO orders VALUES (10, 1, 5.0), (11, 1, 7.5), (12, 2, 2.5);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 0 {
		t.Fatalf("DDL script returned %d queries", len(queries))
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecAndRunEndToEnd(t *testing.T) {
	db := newSQLDB(t)
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	run := func(src string) types.Tuple {
		t.Helper()
		qs, err := ParseWorkload(db, src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Fatalf("no rows for %q", src)
		}
		return res.Tuples[0]
	}
	if got := run(`SELECT count(*) FROM users;`); got[0].Int != 3 {
		t.Errorf("count(users) = %v", got)
	}
	if got := run(`SELECT sum(total) FROM orders WHERE user_id = 1;`); got[0].F != 12.5 {
		t.Errorf("sum = %v", got)
	}
	// Join with unqualified column resolution.
	if got := run(`SELECT count(*) FROM users, orders WHERE id = user_id AND age = 30;`); got[0].Int != 2 {
		t.Errorf("join count = %v", got)
	}
	// Group by.
	qs, err := ParseWorkload(db, `SELECT count(*) FROM users GROUP BY age;`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 2 {
		t.Errorf("group count = %d, want 2", res.Rows)
	}
}

// TestExecCoercesIntegerLiterals: an integer literal loads into a FLOAT
// column as that number and into a DATE column as that day number, while a
// mismatch of any other kind is still refused by the engine.
func TestExecCoercesIntegerLiterals(t *testing.T) {
	db := engine.New(device.Box1(), 128)
	if _, err := Exec(db, `
		CREATE TABLE p (id INT, price FLOAT, d DATE, PRIMARY KEY (id));
		INSERT INTO p VALUES (1, 39, 17), (2, 2.5, DATE 18);
	`); err != nil {
		t.Fatal(err)
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		t.Fatal(err)
	}
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := sess.LookupEq("p_pkey", types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	want := types.Tuple{types.NewInt(1), types.NewFloat(39), types.NewDate(17)}
	if len(rows) != 1 || len(rows[0]) != len(want) {
		t.Fatalf("row 1 = %v, want %v", rows, want)
	}
	for i, v := range want {
		if rows[0][i] != v {
			t.Errorf("row 1 column %d = %+v, want %+v", i, rows[0][i], v)
		}
	}
	for _, bad := range []string{
		`INSERT INTO p VALUES (3, 'cheap', 17);`,
		`INSERT INTO p VALUES (4.5, 1.0, 17);`,
		`INSERT INTO p VALUES (5, 1.0, 1.5);`,
	} {
		if _, err := Exec(db, bad); err == nil {
			t.Errorf("%s: loaded a value of the wrong kind", bad)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	db := newSQLDB(t)
	bad := []string{
		`SELECT count(*) FROM ghosts;`,
		`SELECT count(*) FROM users WHERE ghost = 1;`,
		`SELECT count(*) FROM users, orders WHERE users.ghost = orders.user_id;`,
		`SELECT count(*) FROM users WHERE zz.id = 1;`,
		`SELECT count(*) FROM users, orders WHERE id = id;`,
		`SELECT ghost FROM users;`,
		`SELECT count(*) FROM users GROUP BY ghost;`,
	}
	for _, src := range bad {
		if _, err := ParseWorkload(db, src); err == nil {
			t.Errorf("compile of %q should fail", src)
		}
	}
	// Ambiguous unqualified column across two tables.
	if _, err := Exec(db, `CREATE TABLE dup (id INT, total FLOAT);`); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseWorkload(db, `SELECT count(*) FROM orders, dup WHERE total > 1 AND o_id = id;`); err == nil {
		t.Error("ambiguous column should fail")
	}
}

func TestParseWorkloadRejectsDDL(t *testing.T) {
	db := newSQLDB(t)
	if _, err := ParseWorkload(db, `CREATE TABLE x (a INT);`); err == nil {
		t.Fatal("workload with DDL should fail")
	}
}
