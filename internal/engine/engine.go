// Package engine is the mini-DBMS facade: it owns the catalog, heap files,
// B+-tree indexes, the shared buffer pool, the current data layout and the
// storage-aware optimizer, and it executes queries on behalf of simulated
// workers (sessions). It stands in for the paper's PostgreSQL 9.0 with the
// extended, storage-class-aware cost estimation module (§3.5).
//
// Lifecycle: create a DB with New, declare objects (CreateTable,
// CreateIndex), bulk-load uncharged with Load, install a data layout with
// SetLayout, then Analyze to gather planner statistics. Measured execution
// happens in sessions (NewSession): each session owns an iosim.Accountant
// whose virtual clock accumulates the device service times of every
// buffer-pool miss and row write, so Metrics read off a session are the
// simulated wall time of that worker. Planning for hypothetical layouts —
// the estimation entry point DOT drives — goes through PlanUnder without
// touching the installed layout.
//
// Invariants and contracts:
//
//   - SetLayout validates that the layout is total over the catalog and
//     only uses classes present in the box; capacity is the optimizer's
//     concern, not the engine's.
//   - Sessions bind the layout and concurrency at creation; re-create
//     sessions after SetLayout/SetConcurrency.
//   - The DB keeps one write epoch, which every write to the stored data
//     moves: an insert, an update or a delete of a row, CreateTable and
//     CreateIndex. What is derived from the stored data is kept for one
//     epoch: the executor's decoded pages and traces of executed plans
//     (see executor.Storage), and Analyze's statistics, so that after any
//     write Analyze must run again before planning (Plan/PlanUnder error
//     otherwise).
//   - LookupEq lends its result, as the executor lends its tuples: the
//     tuples, their values and the RIDs live in the session's storage and
//     are valid until that session's next LookupEq. A caller copies what
//     it keeps longer; TPC-C's transactions copy the one row they edit
//     into their worker's scratch tuple, whose next edit overwrites it.
//     Writes encode their records and keys into scratch on the DB, which,
//     like the buffer pool, serves one session at a time. What a write
//     keeps — a page's bytes, an index's key copy and the nodes a split
//     adds — is allocated once (see internal/btree). Analyze reuses one
//     distinct-value set per column position from table to table, cleared
//     before each, and the buffer pool's index map grows with what it holds
//     and is cleared, not reallocated, between runs.
//   - SetTap installs a live I/O observer mirrored into every later
//     session's accountant — the online advisor's profile capture point
//     (see internal/online).
package engine

import (
	"cmp"
	"fmt"
	"math/bits"

	"dotprov/internal/btree"
	"dotprov/internal/bufferpool"
	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/executor"
	"dotprov/internal/iosim"
	"dotprov/internal/optimizer"
	"dotprov/internal/pagestore"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// DefaultPoolPages sizes the shared buffer pool (~32 MiB of 8 KiB pages),
// the scaled-down analogue of the paper's 4 GB shared_buffers against a
// 30 GB database.
const DefaultPoolPages = 4096

// DB is a single-instance mini database.
type DB struct {
	Cat *catalog.Catalog
	Box *device.Box

	pool        *bufferpool.Pool
	heaps       map[catalog.ObjectID]*pagestore.HeapFile
	trees       map[catalog.ObjectID]*btree.Tree
	layout      catalog.Layout
	concurrency int
	opt         *optimizer.Optimizer
	tap         iosim.Charger
	spare       executor.Spare
	decoded     executor.Decoded
	traces      executor.Traces
	// epoch is the write epoch (see Epoch); analyzedAt is the epoch opt's
	// statistics were gathered in.
	epoch, analyzedAt uint64
	// writes holds, per table, what a write needs of its indexes.
	writes map[catalog.ObjectID]*tableWrites

	// Write-path scratch, reused from row to row under the buffer pool's
	// single-writer rule: the page copies rec, a tree copies the key it
	// keeps, and old holds only the index-key columns of the row being
	// updated or deleted.
	rec, key, oldKey []byte
	old              types.Tuple

	// lookupHook, set only by tests, runs in every LookupEq after the
	// search key is encoded and before the session's result storage is
	// reused.
	lookupHook func(*Session)
}

// tableWrites is a table's indexes in creation order, resolved once by
// CreateIndex, plus the mask of the columns any of them keys on: the part
// of an old row UpdateByRID and DeleteByRID decode.
type tableWrites struct {
	indexes []indexKey
	mask    []bool
}

// indexKey is one index as a write maintains it: its tree and the
// positions of its key columns in the table's schema.
type indexKey struct {
	id   catalog.ObjectID
	tree *btree.Tree
	pos  []int
}

// New creates an empty database on a box. poolPages <= 0 selects the
// default pool size. The initial layout is empty; call SetLayout after
// creating objects (or use catalog.NewUniformLayout).
func New(box *device.Box, poolPages int) *DB {
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	return &DB{
		Cat:         catalog.New(),
		Box:         box,
		pool:        bufferpool.New(poolPages),
		heaps:       make(map[catalog.ObjectID]*pagestore.HeapFile),
		trees:       make(map[catalog.ObjectID]*btree.Tree),
		writes:      make(map[catalog.ObjectID]*tableWrites),
		layout:      catalog.Layout{},
		concurrency: 1,
	}
}

// ---- executor.Storage ----------------------------------------------------

// Heap implements executor.Storage.
func (db *DB) Heap(id catalog.ObjectID) *pagestore.HeapFile { return db.heaps[id] }

// Tree implements executor.Storage.
func (db *DB) Tree(id catalog.ObjectID) *btree.Tree { return db.trees[id] }

// TableSchema implements executor.Storage.
func (db *DB) TableSchema(name string) *types.Schema {
	t, err := db.Cat.TableByName(name)
	if err != nil {
		return nil
	}
	return t.Schema
}

// Pool implements executor.Storage.
func (db *DB) Pool() *bufferpool.Pool { return db.pool }

// Spare implements executor.Storage.
func (db *DB) Spare() *executor.Spare { return &db.spare }

// Decoded implements executor.Storage.
func (db *DB) Decoded() *executor.Decoded { return &db.decoded }

// Traces implements executor.Storage.
func (db *DB) Traces() *executor.Traces { return &db.traces }

// Epoch implements executor.Storage: the write epoch, which every insert,
// update and delete, CreateTable and CreateIndex moves.
func (db *DB) Epoch() uint64 { return db.epoch }

// ---- DDL ------------------------------------------------------------------

// CreateTable creates a table plus, when primaryKey is non-empty, its
// primary-key index named <table>_pkey.
func (db *DB) CreateTable(name string, schema *types.Schema, primaryKey []string) (*catalog.Table, error) {
	t, err := db.Cat.CreateTable(name, schema, primaryKey)
	if err != nil {
		return nil, err
	}
	db.epoch++
	db.heaps[t.ID] = pagestore.NewHeapFile(t.ID)
	db.writes[t.ID] = &tableWrites{mask: make([]bool, schema.Len())}
	if len(primaryKey) > 0 {
		if _, err := db.CreateIndex(name+"_pkey", name, primaryKey, true); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// CreateIndex creates an index and backfills it from the table's current
// contents (uncharged: DDL happens outside measurement).
func (db *DB) CreateIndex(name, table string, columns []string, unique bool) (*catalog.Index, error) {
	t, err := db.Cat.TableByName(table)
	if err != nil {
		return nil, err
	}
	ix, err := db.Cat.CreateIndex(name, t.ID, columns, unique)
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(columns)) // the catalog has checked the columns
	for i, c := range columns {
		pos[i] = t.Schema.ColIndex(c)
	}
	db.epoch++
	tree := btree.New(ix.ID)
	db.trees[ix.ID] = tree
	w := db.writes[t.ID]
	w.indexes = append(w.indexes, indexKey{id: ix.ID, tree: tree, pos: pos})
	// Backfill: one reused row, decoding the key columns only.
	heap := db.heaps[t.ID]
	tu := make(types.Tuple, t.Schema.Len())
	mask := make([]bool, len(tu))
	for _, p := range pos {
		mask[p] = true
		w.mask[p] = true
	}
	var key []byte
	var decodeErr error
	err = heap.Scan(db.pool, bufferpool.NopCharger{}, func(rid pagestore.RID, rec []byte) bool {
		if _, decodeErr = types.DecodeTupleInto(tu, rec, mask); decodeErr != nil {
			return false
		}
		key = encodeKey(key[:0], tu, pos)
		tree.Insert(db.pool, bufferpool.NopCharger{}, key, rid)
		return true
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// ---- Layout & concurrency --------------------------------------------------

// SetLayout installs a data layout after validating that every object is
// placed on a class present in the box. (The capacity check is the layout
// optimizer's job; the engine itself will run any valid placement.)
func (db *DB) SetLayout(l catalog.Layout) error {
	for id, cls := range l {
		if db.Cat.Object(id) == nil {
			return fmt.Errorf("engine: layout places unknown object %d", id)
		}
		if db.Box.Device(cls) == nil {
			return fmt.Errorf("engine: layout uses class %v absent from box %q", cls, db.Box.Name)
		}
	}
	for _, o := range db.Cat.Objects() {
		if _, ok := l[o.ID]; !ok {
			return fmt.Errorf("engine: layout does not place object %q", o.Name)
		}
	}
	db.layout = l.Clone()
	return nil
}

// Layout returns (a copy of) the current layout.
func (db *DB) Layout() catalog.Layout { return db.layout.Clone() }

// SetConcurrency declares the degree of concurrency (number of simultaneous
// DB workers) used to resolve device service times (paper §3.5).
func (db *DB) SetConcurrency(c int) {
	if c < 1 {
		c = 1
	}
	db.concurrency = c
	if db.opt != nil {
		db.opt.Concurrency = c
	}
}

// Concurrency returns the configured degree of concurrency.
func (db *DB) Concurrency() int { return db.concurrency }

// ClearPool empties the buffer pool (cold cache between measured runs).
func (db *DB) ClearPool() { db.pool.Clear() }

// ResizePool replaces the buffer pool with one of the given capacity (in
// pages), dropping all cached pages. Harnesses use it to keep the
// database-to-buffer ratio comparable to the paper's 30 GB DB vs 4 GB
// shared buffers after loading scaled-down data.
func (db *DB) ResizePool(pages int) {
	db.pool = bufferpool.New(pages)
}

// PaperPoolPages is the pool size, in pages, that keeps the paper's
// database-to-buffer ratio (a 30 GB database behind 4 GB of shared buffers)
// for the data loaded so far: TotalPages/8, and at least 32 pages.
func (db *DB) PaperPoolPages() int {
	return max(db.TotalPages()/8, 32)
}

// TotalPages reports the database size in pages across heaps and indexes.
func (db *DB) TotalPages() int {
	total := 0
	for _, h := range db.heaps {
		total += h.NumPages()
	}
	for _, t := range db.trees {
		total += t.NumPages()
	}
	return total
}

// ---- Loading (uncharged) ---------------------------------------------------

// Load appends a row outside measurement (bulk load), updating indexes.
func (db *DB) Load(table string, tu types.Tuple) error {
	return db.insert(bufferpool.NopCharger{}, table, tu)
}

// ---- Sessions ---------------------------------------------------------------

// Session is one simulated DB worker: it owns a virtual clock and an I/O
// accountant bound to the layout current at session creation.
type Session struct {
	db   *DB
	acct *iosim.Accountant

	// LookupEq's storage: its search key, and the result it lends its
	// caller until the next LookupEq — the matches decoded into one slab of
	// values, the tuples slicing it, and their RIDs.
	key    []byte
	vals   []types.Value
	tuples []types.Tuple
	rids   []pagestore.RID
}

// SetTap installs a live I/O observer on the engine: every device charge a
// session makes from now on (buffer-pool misses, row writes) is mirrored to
// tap, keyed by object and I/O type. Sessions capture the tap at creation,
// so install it before NewSession. The tap must be safe for concurrent use
// when sessions are driven from multiple goroutines (online.Collector is:
// every charge takes the collector mutex, so sessions on several
// goroutines share one collector safely). Nil uninstalls. This is the
// capture point of the online advising loop: the running workload profiles
// itself as a side effect of execution.
func (db *DB) SetTap(tap iosim.Charger) { db.tap = tap }

// NewSession creates a worker session against the current layout and
// concurrency. Sessions become stale when SetLayout changes placements;
// create sessions after installing the layout under test.
func (db *DB) NewSession() (*Session, error) {
	acct, err := iosim.NewAccountant(db.Box, db.layout, db.concurrency, nil)
	if err != nil {
		return nil, err
	}
	acct.SetTap(db.tap)
	return &Session{db: db, acct: acct}, nil
}

// Acct exposes the session's accountant (clock, I/O profile, times).
func (s *Session) Acct() *iosim.Accountant { return s.acct }

// ---- Statistics / optimizer -------------------------------------------------

// Analyze gathers table and column statistics, refreshes catalog object
// sizes, and (re)builds the optimizer. Must be called after loading and
// before planning, and again after any write.
func (db *DB) Analyze() error {
	opt := optimizer.New(db.Box, db.concurrency)
	// One distinct-value set per column position, reused from table to
	// table: each keeps its storage and is reset before the next table.
	var distinct []distinctSet
	for _, t := range db.Cat.Tables() {
		heap := db.heaps[t.ID]
		db.Cat.SetSize(t.ID, heap.SizeBytes())
		ti := &optimizer.TableInfo{
			Name:   t.Name,
			ID:     t.ID,
			Rows:   float64(heap.NumRows()),
			Pages:  float64(heap.NumPages()),
			Cols:   make(map[string]*optimizer.ColStats, t.Schema.Len()),
			Schema: t.Schema,
		}
		// Column statistics: exact NDV and, over the numbers, min/max by one
		// uncharged pass. The planner keeps numeric ranges only, so strings
		// are not ranged.
		n := t.Schema.Len()
		for len(distinct) < n {
			distinct = append(distinct, distinctSet{})
		}
		for i := range n {
			distinct[i].reset()
		}
		mins := make([]types.Value, n)
		maxs := make([]types.Value, n)
		seen := make([]bool, n)
		var decodeErr error
		tu := make(types.Tuple, n) // reused: only Values are copied out of it
		heap.Scan(db.pool, bufferpool.NopCharger{}, func(_ pagestore.RID, rec []byte) bool {
			if _, err := types.DecodeTupleInto(tu, rec, nil); err != nil {
				decodeErr = err
				return false
			}
			for i := range tu {
				v := &tu[i]
				distinct[i].add(v)
				if v.Kind == types.KindString {
					continue
				}
				if !seen[i] {
					mins[i], maxs[i], seen[i] = *v, *v, true
				} else {
					if compare(v, &mins[i]) < 0 {
						mins[i] = *v
					}
					if compare(v, &maxs[i]) > 0 {
						maxs[i] = *v
					}
				}
			}
			return true
		})
		if decodeErr != nil {
			return decodeErr
		}
		for i, col := range t.Schema.Columns {
			st := &optimizer.ColStats{NDV: float64(distinct[i].len())}
			if st.NDV < 1 {
				st.NDV = 1
			}
			if seen[i] {
				st.Min, st.Max, st.HasRange = mins[i], maxs[i], true
			}
			ti.Cols[col.Name] = st
		}
		for _, ix := range db.Cat.TableIndexes(t.ID) {
			tree := db.trees[ix.ID]
			db.Cat.SetSize(ix.ID, tree.SizeBytes())
			ti.Indexes = append(ti.Indexes, &optimizer.IndexInfo{
				Name:      ix.Name,
				ID:        ix.ID,
				Column:    ix.Columns[0],
				Columns:   ix.Columns,
				Unique:    ix.Unique,
				Height:    float64(tree.Height()),
				LeafPages: float64(tree.LeafPages()),
				Entries:   float64(tree.Len()),
			})
		}
		opt.AddTable(ti)
	}
	db.opt, db.analyzedAt = opt, db.epoch
	return nil
}

// compare is types.Compare(*a, *b) for two numbers, with Compare's own
// integral case in line: Analyze ranges every number of every table.
func compare(a, b *types.Value) int {
	if a.Kind == types.KindFloat || b.Kind == types.KindFloat {
		return types.Compare(*a, *b)
	}
	return cmp.Compare(a.Int, b.Int)
}

// distinctSet counts one column's distinct values under the equality of
// their types.EncodeKey encodings, as a hash join pairs them: a number by
// its types.KeyBits word, in an open-addressing set of words that doubles
// when half full, and a string by itself. So an int and a date of the same
// day number are one value, -0 and +0 two, and a string never equals a
// number. The set grows with the values it holds, never to a table's row
// count up front, and keeps its storage when reset. The zero distinctSet
// is empty and ready to use.
type distinctSet struct {
	words []uint64 // a power of two long; 0 marks an empty slot
	shift uint     // 64 - log2(len(words))
	n     int      // words held, the word 0 included
	zero  bool     // whether the word 0, kept outside words, is held
	strs  map[string]struct{}
}

// add counts *v. It takes v by address, as the executor's keyOf does: a
// value handed over in registers is spilled a field at a time and read
// back whole, which stalls on every value.
func (d *distinctSet) add(v *types.Value) {
	if v.Kind == types.KindString {
		if d.strs == nil {
			d.strs = make(map[string]struct{})
		}
		d.strs[v.Str] = struct{}{}
		return
	}
	w := types.KeyBits(*v)
	if w == 0 {
		if !d.zero {
			d.zero = true
			d.n++
		}
		return
	}
	if 2*(d.n+1) > len(d.words) {
		d.grow()
	}
	if d.insert(w) {
		d.n++
	}
}

// insert puts w, which is not 0, in its slot and reports whether it was new.
func (d *distinctSet) insert(w uint64) bool {
	mask := uint64(len(d.words) - 1)
	for i := types.SpreadKey(w) >> d.shift; ; i = (i + 1) & mask {
		switch d.words[i] {
		case 0:
			d.words[i] = w
			return true
		case w:
			return false
		}
	}
}

// grow doubles the set's slots (to 16 at first) and puts its words back.
func (d *distinctSet) grow() {
	old := d.words
	size := max(16, 2*len(old))
	d.words, d.shift = make([]uint64, size), uint(64-bits.TrailingZeros(uint(size)))
	for _, w := range old {
		if w != 0 {
			d.insert(w)
		}
	}
}

// len returns the number of distinct values counted.
func (d *distinctSet) len() int { return d.n + len(d.strs) }

// reset empties the set, keeping its storage.
func (d *distinctSet) reset() {
	clear(d.words)
	clear(d.strs)
	d.n, d.zero = 0, false
}

// Planner returns the optimizer holding the latest Analyze's statistics, or
// the error every planning entry point reports while there are none to plan
// from: before the first Analyze, and after any write since the latest.
// Analyze builds a new optimizer each time, so callers that keep
// optimizer.Prepared queries (or costs derived from them) across calls
// compare the pointer — and its Concurrency, which SetConcurrency updates
// in place — to know when what they hold is stale.
func (db *DB) Planner() (*optimizer.Optimizer, error) {
	if db.opt == nil || db.analyzedAt != db.epoch {
		return nil, fmt.Errorf("engine: Analyze must run before planning")
	}
	return db.opt, nil
}

// Plan plans a query under the engine's current layout.
func (db *DB) Plan(q *plan.Query) (*plan.Plan, error) {
	return db.PlanUnder(q, db.layout)
}

// PlanUnder plans a query under a hypothetical layout without installing
// it — the estimation entry point DOT drives (paper Procedure 1's
// estimateTOC). It prepares the query afresh; callers that plan the same
// queries under many layouts (workload.DSS) prepare them once through
// Planner.
func (db *DB) PlanUnder(q *plan.Query, l catalog.Layout) (*plan.Plan, error) {
	opt, err := db.Planner()
	if err != nil {
		return nil, err
	}
	return opt.Plan(q, l)
}

// Run plans and executes a query in the session, returning the result.
func (s *Session) Run(q *plan.Query) (*executor.Result, error) {
	pl, err := s.db.Plan(q)
	if err != nil {
		return nil, err
	}
	return executor.Run(s.db, s.acct, pl)
}

// RunPlan executes an already-planned query.
func (s *Session) RunPlan(pl *plan.Plan) (*executor.Result, error) {
	return executor.Run(s.db, s.acct, pl)
}
