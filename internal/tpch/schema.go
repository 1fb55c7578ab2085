// Package tpch provides the TPC-H-like decision-support substrate of the
// paper's §4.4 evaluation: the eight-table schema with primary-key indexes
// (16 placeable objects, as in the paper), a deterministic scaled-down data
// generator whose tables are loaded in shuffled order ("all the tables are
// randomly reshuffled so that they are not clustered on the primary keys",
// §4.4), and the query workloads:
//
//   - the original 22 templates (approximated as structured
//     select-project-join-aggregate blocks over the engine's query IR;
//     correlated subqueries are flattened into selective predicates, which
//     preserves each template's I/O access pattern),
//   - the modified Q2/Q5/Q9/Q11/Q17 of Canim et al. with extra selective
//     key predicates (the Operational Data Store mix of §4.4.2), and
//   - the 11-template subset used for the exhaustive-search comparison
//     (§4.4.3).
package tpch

import (
	"fmt"
	"math/rand"

	"dotprov/internal/engine"
	"dotprov/internal/types"
)

// Date range of TPC-H data, in days since the Unix epoch.
const (
	DateLo = 8036  // 1992-01-01
	DateHi = 10591 // 1998-12-31
)

// Config controls data generation.
type Config struct {
	// ScaleFactor scales row counts relative to TPC-H SF1. The paper runs
	// SF20 on real hardware; the simulator default keeps tests fast.
	ScaleFactor float64
	// Seed makes generation deterministic.
	Seed int64
}

// Rows returns the row counts for the configuration.
func (c Config) Rows() map[string]int {
	sf := c.ScaleFactor
	if sf <= 0 {
		sf = 0.01
	}
	atLeast := func(n float64, min int) int {
		if int(n) < min {
			return min
		}
		return int(n)
	}
	orders := atLeast(1_500_000*sf, 150)
	return map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": atLeast(10_000*sf, 10),
		"customer": atLeast(150_000*sf, 30),
		"part":     atLeast(200_000*sf, 40),
		"partsupp": atLeast(800_000*sf, 160),
		"orders":   orders,
		"lineitem": orders * 4, // TPC-H averages 4 lineitems per order
	}
}

var (
	regions   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	segments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	brands    = []string{"Brand#11", "Brand#12", "Brand#21", "Brand#22", "Brand#31", "Brand#32", "Brand#41", "Brand#42", "Brand#51", "Brand#52"}
	mfgrs     = []string{"Mfgr#1", "Mfgr#2", "Mfgr#3", "Mfgr#4", "Mfgr#5"}
	ptypes    = []string{"ECONOMY ANODIZED STEEL", "LARGE BRUSHED BRASS", "MEDIUM POLISHED COPPER", "PROMO BURNISHED NICKEL", "SMALL PLATED TIN", "STANDARD POLISHED STEEL"}
	shipmodes = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	prios     = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
)

func col(name string, k types.Kind) types.Column { return types.Column{Name: name, Kind: k} }

// Build creates the TPC-H schema in the database and loads generated data
// in shuffled physical order, then runs Analyze. The resulting catalog has
// 16 objects: 8 tables and 8 primary-key indexes.
func Build(db *engine.DB, cfg Config) error {
	if err := createSchema(db, allTables); err != nil {
		return err
	}
	if err := load(db, cfg, allTables); err != nil {
		return err
	}
	return db.Analyze()
}

// BuildSubset creates only the tables used in the exhaustive-search
// experiment (§4.4.3: lineitem, orders, customer, part and their indices —
// 8 objects).
func BuildSubset(db *engine.DB, cfg Config) error {
	sub := []string{"customer", "part", "orders", "lineitem"}
	if err := createSchema(db, sub); err != nil {
		return err
	}
	if err := load(db, cfg, sub); err != nil {
		return err
	}
	return db.Analyze()
}

var allTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

func createSchema(db *engine.DB, tables []string) error {
	defs := map[string]struct {
		schema *types.Schema
		pk     []string
	}{
		"region": {types.NewSchema(
			col("r_regionkey", types.KindInt),
			col("r_name", types.KindString),
		), []string{"r_regionkey"}},
		"nation": {types.NewSchema(
			col("n_nationkey", types.KindInt),
			col("n_name", types.KindString),
			col("n_regionkey", types.KindInt),
		), []string{"n_nationkey"}},
		"supplier": {types.NewSchema(
			col("s_suppkey", types.KindInt),
			col("s_name", types.KindString),
			col("s_nationkey", types.KindInt),
			col("s_acctbal", types.KindFloat),
		), []string{"s_suppkey"}},
		"customer": {types.NewSchema(
			col("c_custkey", types.KindInt),
			col("c_name", types.KindString),
			col("c_nationkey", types.KindInt),
			col("c_mktsegment", types.KindString),
			col("c_acctbal", types.KindFloat),
		), []string{"c_custkey"}},
		"part": {types.NewSchema(
			col("p_partkey", types.KindInt),
			col("p_name", types.KindString),
			col("p_mfgr", types.KindString),
			col("p_brand", types.KindString),
			col("p_type", types.KindString),
			col("p_size", types.KindInt),
			col("p_retailprice", types.KindFloat),
		), []string{"p_partkey"}},
		"partsupp": {types.NewSchema(
			col("ps_partkey", types.KindInt),
			col("ps_suppkey", types.KindInt),
			col("ps_availqty", types.KindInt),
			col("ps_supplycost", types.KindFloat),
		), []string{"ps_partkey", "ps_suppkey"}},
		"orders": {types.NewSchema(
			col("o_orderkey", types.KindInt),
			col("o_custkey", types.KindInt),
			col("o_orderstatus", types.KindString),
			col("o_totalprice", types.KindFloat),
			col("o_orderdate", types.KindDate),
			col("o_orderpriority", types.KindString),
		), []string{"o_orderkey"}},
		"lineitem": {types.NewSchema(
			col("l_orderkey", types.KindInt),
			col("l_linenumber", types.KindInt),
			col("l_partkey", types.KindInt),
			col("l_suppkey", types.KindInt),
			col("l_quantity", types.KindFloat),
			col("l_extendedprice", types.KindFloat),
			col("l_discount", types.KindFloat),
			col("l_returnflag", types.KindString),
			col("l_shipdate", types.KindDate),
			col("l_receiptdate", types.KindDate),
			col("l_shipmode", types.KindString),
		), []string{"l_orderkey", "l_linenumber"}},
	}
	for _, name := range tables {
		d, ok := defs[name]
		if !ok {
			return fmt.Errorf("tpch: unknown table %q", name)
		}
		if _, err := db.CreateTable(name, d.schema, d.pk); err != nil {
			return err
		}
	}
	return nil
}

// load generates and loads rows table by table. Rows are generated in key
// order, then inserted in a shuffled permutation so heap order does not
// follow the primary key.
func load(db *engine.DB, cfg Config, tables []string) error {
	rows := cfg.Rows()
	r := rand.New(rand.NewSource(cfg.Seed))
	gens := map[string]func(i int, r *rand.Rand) types.Tuple{
		"region": func(i int, r *rand.Rand) types.Tuple {
			return types.Tuple{types.NewInt(int64(i)), types.NewString(regions[i%len(regions)])}
		},
		"nation": func(i int, r *rand.Rand) types.Tuple {
			return types.Tuple{
				types.NewInt(int64(i)),
				types.NewString(fmt.Sprintf("NATION-%02d", i)),
				types.NewInt(int64(i % 5)),
			}
		},
		"supplier": func(i int, r *rand.Rand) types.Tuple {
			return types.Tuple{
				types.NewInt(int64(i)),
				types.NewString(fmt.Sprintf("Supplier#%09d", i)),
				types.NewInt(int64(r.Intn(25))),
				types.NewFloat(float64(r.Intn(999999)) / 100),
			}
		},
		"customer": func(i int, r *rand.Rand) types.Tuple {
			return types.Tuple{
				types.NewInt(int64(i)),
				types.NewString(fmt.Sprintf("Customer#%09d", i)),
				types.NewInt(int64(r.Intn(25))),
				types.NewString(segments[r.Intn(len(segments))]),
				types.NewFloat(float64(r.Intn(1099999))/100 - 999.99),
			}
		},
		"part": func(i int, r *rand.Rand) types.Tuple {
			return types.Tuple{
				types.NewInt(int64(i)),
				types.NewString(fmt.Sprintf("part name %d padding padding", i)),
				types.NewString(mfgrs[r.Intn(len(mfgrs))]),
				types.NewString(brands[r.Intn(len(brands))]),
				types.NewString(ptypes[r.Intn(len(ptypes))]),
				types.NewInt(int64(1 + r.Intn(50))),
				types.NewFloat(900 + float64(i%1000)),
			}
		},
	}
	nPart := rows["part"]
	nSupp := rows["supplier"]
	nCust := rows["customer"]
	nOrders := rows["orders"]

	for _, name := range tables {
		switch name {
		case "partsupp":
			// 4 suppliers per part, like dbgen.
			n := rows["partsupp"]
			if err := loadShuffled(db, name, n, func(i int) types.Tuple {
				part := i / 4
				if part >= nPart {
					part = part % nPart
				}
				supp := (part + (i%4)*(nSupp/4+1)) % nSupp
				return types.Tuple{
					types.NewInt(int64(part)),
					types.NewInt(int64(supp)),
					types.NewInt(int64(1 + r.Intn(9999))),
					types.NewFloat(float64(1+r.Intn(100000)) / 100),
				}
			}); err != nil {
				return err
			}
		case "orders":
			if err := loadShuffled(db, name, nOrders, func(i int) types.Tuple {
				return types.Tuple{
					types.NewInt(int64(i)),
					types.NewInt(int64(r.Intn(nCust))),
					types.NewString([]string{"O", "F", "P"}[r.Intn(3)]),
					types.NewFloat(1000 + float64(r.Intn(400000))/100),
					types.NewDate(int64(DateLo + r.Intn(DateHi-DateLo+1))),
					types.NewString(prios[r.Intn(len(prios))]),
				}
			}); err != nil {
				return err
			}
		case "lineitem":
			n := rows["lineitem"]
			if err := loadShuffled(db, name, n, func(i int) types.Tuple {
				order := i / 4
				if order >= nOrders {
					order = order % nOrders
				}
				ship := int64(DateLo + r.Intn(DateHi-DateLo+1))
				return types.Tuple{
					types.NewInt(int64(order)),
					types.NewInt(int64(i%4 + 1)),
					types.NewInt(int64(r.Intn(nPart))),
					types.NewInt(int64(r.Intn(nSupp))),
					types.NewFloat(float64(1 + r.Intn(50))),
					types.NewFloat(float64(100+r.Intn(10000)) / 10),
					types.NewFloat(float64(r.Intn(11)) / 100),
					types.NewString([]string{"A", "N", "R"}[r.Intn(3)]),
					types.NewDate(ship),
					types.NewDate(ship + int64(1+r.Intn(30))),
					types.NewString(shipmodes[r.Intn(len(shipmodes))]),
				}
			}); err != nil {
				return err
			}
		default:
			gen := gens[name]
			if err := loadShuffled(db, name, rows[name], func(i int) types.Tuple {
				return gen(i, r)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadShuffled materialises n generated rows and loads them in a random
// permutation so the heap is unclustered.
func loadShuffled(db *engine.DB, table string, n int, gen func(i int) types.Tuple) error {
	tuples := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		tuples[i] = gen(i)
	}
	r := rand.New(rand.NewSource(int64(len(table)) * int64(n)))
	r.Shuffle(n, func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	for _, tu := range tuples {
		if err := db.Load(table, tu); err != nil {
			return fmt.Errorf("tpch: loading %s: %w", table, err)
		}
	}
	return nil
}
