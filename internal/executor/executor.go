// Package executor runs physical plans against the engine's heap files and
// B+-trees. Execution is real — tuples are decoded from slotted pages,
// hash tables are built, index probes descend actual trees — while device
// time is charged through the buffer pool to the storage class holding each
// object, and CPU time is charged with the same constants the optimizer
// uses for its estimates (plan.CPUPerTuple and friends), so estimated and
// measured times stay mutually consistent.
//
// The entry point is Run: it walks the plan tree (sequential scan, index
// scan/probe, hash join, indexed nested-loop join, aggregation) pushing
// tuples through a callback, charging every page touch to the worker's
// accountant via the shared buffer pool. All device accounting flows
// through the iosim.Accountant it is handed, which is what makes profiles
// captured during execution exact (the online collector taps that same
// stream).
//
// A sequential scan reads decoded pages. The database keeps, in its
// Decoded, a column-major copy of every heap page a scan has read in the
// current write epoch (see types.PageColumns and Storage.Epoch), so the
// queries of a validation run, and the runs after it, decode each page
// once instead of once per scan; the first scan after a write decodes
// again every page it reads. The scan still charges the page read as
// the pool decides, and each row's CPU in slot order, where a scan that
// decoded record by record would; it evaluates its predicates a column at
// a time and fills in only the columns its consumer reads. Index fetches
// decode the one record they read (types.DecodeTupleInto).
//
// Tuples are borrowed: the tuple an operator hands to its consumer is valid
// for that one call, because scans write every row into one reused row and
// joins assemble every match in one reused tuple. Only what retains a row
// copies it — Run into Result.Tuples, a hash join's build side into its
// chunks, an aggregate its group keys and extremes. And each consumer says,
// top-down, which columns it reads (nil = all, which is what Run asks of
// the root, so results are complete): an aggregate needs its group-by and
// aggregated columns, a join adds its key to what it asks of each child,
// and a scan fills in only those; an index fetch also decodes its residual
// predicates' columns and skips the rest. Neither rule changes a charge:
// the same rows flow in the same order through the same page accesses, so
// virtual time, profiles and results are exactly those of an executor that
// materialised every row (testdata/tpch.golden).
//
// A hash join keys its rows on the value, as one word each — a number's
// types.KeyBits, a string's fixed hash, with the string itself kept beside
// it — so it pairs exactly the rows whose types.EncodeKey bytes are equal
// without encoding a key or allocating one. The build side keeps its rows'
// words in the chunks that hold the rows and, when its input ends, chains
// the rows under a power-of-two directory in one pass; the probe hashes
// once and walks its chain comparing words (and strings). No Go map is
// involved. The build storage is recycled: the chunks and the directory
// come from the database's Spare and go back, the chunks cleared, when the
// probe ends, which is safe because nothing a join lends outlives its emit.
//
// A plan is executed once per write epoch of its database (Storage.Epoch),
// and replayed after that. Which pages a plan touches, in which order, is
// a function of the plan and the stored data: no operator branches on
// whether a page hit the pool, and the layout only prices a charge. So the
// database's Traces keeps, for every plan Run has executed in the current
// epoch, the pool's recording of its page accesses, the CPU it charged and
// its result, and Run replays a plan it holds: the accesses go in order
// through the session's own pool and accountant, hitting or missing as the
// pool decides now, the CPU is charged, and the caller gets a copy of the
// rows. Misses, profile, tap stream, pool state and clock are those of
// executing the plan, under any layout or pool size
// (TestReplayMatchesExecution). A validation run on a new layout therefore
// executes only the plans the layout changed.
package executor

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"dotprov/internal/btree"
	"dotprov/internal/bufferpool"
	"dotprov/internal/catalog"
	"dotprov/internal/iosim"
	"dotprov/internal/pagestore"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// Storage is what the executor needs from the engine.
type Storage interface {
	Heap(id catalog.ObjectID) *pagestore.HeapFile
	Tree(id catalog.ObjectID) *btree.Tree
	TableSchema(name string) *types.Schema
	Pool() *bufferpool.Pool
	// Spare is where the database's hash joins recycle their build storage.
	Spare() *Spare
	// Decoded is where the database's sequential scans keep the pages they
	// have decoded.
	Decoded() *Decoded
	// Traces is the database's memo of executed plans, which Run replays
	// instead of executing them again; nil means no memo, so Run executes
	// every plan.
	Traces() *Traces
	// Epoch is the database's write epoch. It moves on every write to what
	// Heap and Tree hold, and on nothing else; Decoded and Traces keep only
	// what was derived in the current one.
	Epoch() uint64
}

// MaxResultTuples caps how many output tuples Run materialises in the
// Result (counting always continues past the cap).
const MaxResultTuples = 10000

// Result summarises a query execution. Its Tuples belong to the caller,
// who may change them: Run hands out a copy of what its memo keeps.
type Result struct {
	Rows   int64
	Tuples []types.Tuple // first MaxResultTuples output rows
}

// Run runs a plan on behalf of one worker, charging I/O and CPU to the
// accountant, and returns the result. When the storage's memo holds the
// plan, Run replays it: it makes the recorded page accesses in order
// through the storage's pool, charges the recorded CPU and returns a copy
// of the recorded result, so the accountant, its tap and the pool end as
// executing the plan would leave them. Otherwise it executes the plan,
// recording the pool's accesses, and keeps what it did in the memo.
func Run(st Storage, acct *iosim.Accountant, p *plan.Plan) (*Result, error) {
	memo := st.Traces()
	if memo == nil {
		return execute(st, acct, p.Root)
	}
	key, hit := memo.find(p.Root, st.Epoch())
	if hit != nil {
		return hit.replay(st.Pool(), acct), nil
	}
	if key == nil {
		return execute(st, acct, p.Root)
	}
	return memo.record(key, st, acct, p.Root)
}

// executing, set only by tests, is called whenever Run executes a plan.
var executing func()

// execute executes the plan rooted at root.
func execute(st Storage, acct *iosim.Accountant, root plan.Node) (*Result, error) {
	if executing != nil {
		executing()
	}
	return (&exec{st: st, acct: acct}).collect(root)
}

type exec struct {
	st   Storage
	acct *iosim.Accountant
	// wrap, when set, is put around every emit an operator is handed. Only
	// tests set it, to poison borrowed tuples once the consumer returns.
	wrap func(emit func(types.Tuple) bool) func(types.Tuple) bool
}

// collect runs the plan asking for every column and copies the first
// MaxResultTuples rows out of the operators' scratch.
func (e *exec) collect(root plan.Node) (*Result, error) {
	res := &Result{}
	err := e.run(root, nil, func(t types.Tuple) bool {
		res.Rows++
		if len(res.Tuples) < MaxResultTuples {
			res.Tuples = append(res.Tuples, t.Clone())
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run pushes the node's output tuples into emit; emit returning false stops
// execution early (limit). need marks the positions of the node's schema
// the consumer reads (nil = all); a tuple always has the schema's full
// width, but only those positions of it are filled in. A tuple is only lent
// to emit — the operator reuses its storage for the next row — so a
// consumer that keeps a row copies it.
func (e *exec) run(n plan.Node, need []bool, emit func(types.Tuple) bool) error {
	if e.wrap != nil {
		emit = e.wrap(emit)
	}
	switch t := n.(type) {
	case *plan.SeqScan:
		return e.seqScan(t, need, emit)
	case *plan.IndexScan:
		return e.indexScan(t, need, emit)
	case *plan.Join:
		if t.Algo == plan.HashJoin {
			return e.hashJoin(t, need, emit)
		}
		return e.indexNLJoin(t, need, emit)
	case *plan.AggNode:
		return e.aggregate(t, emit)
	case *plan.LimitNode:
		left := t.N
		return e.run(t.Input, need, func(tu types.Tuple) bool {
			if left <= 0 {
				return false
			}
			left--
			return emit(tu) && left > 0
		})
	default:
		return fmt.Errorf("executor: unknown node %T", n)
	}
}

// predIdx binds a predicate list to column positions in a schema.
func predIdx(sch *types.Schema, preds []plan.Pred) ([]int, error) {
	out := make([]int, len(preds))
	for i, p := range preds {
		idx := sch.ColIndex(p.Column)
		if idx < 0 {
			return nil, fmt.Errorf("executor: predicate column %s.%s not in schema", p.Table, p.Column)
		}
		out[i] = idx
	}
	return out, nil
}

// rowDecoder turns the heap records an index points at into the tuples an
// operator emits. It decodes into one reused row only the columns somebody
// reads — the consumer's need plus the predicates' — and evaluates the
// predicates there.
type rowDecoder struct {
	e      *exec
	heap   *pagestore.HeapFile
	row    types.Tuple
	mask   []bool // columns decoded into row (nil = all)
	preds  []plan.Pred
	idx    []int
	perRow time.Duration
}

// table resolves a scanned table's schema, heap and predicate positions.
func (e *exec) table(table string, id catalog.ObjectID, preds []plan.Pred) (*types.Schema, *pagestore.HeapFile, []int, error) {
	sch, heap := e.st.TableSchema(table), e.st.Heap(id)
	if sch == nil || heap == nil {
		return nil, nil, nil, fmt.Errorf("executor: no schema or heap for table %q", table)
	}
	idx, err := predIdx(sch, preds)
	return sch, heap, idx, err
}

// rowCPU is what a scan charges for each row it reads, whether or not the
// row passes its predicates.
func rowCPU(preds []plan.Pred) time.Duration {
	return plan.CPUTupleTime + time.Duration(len(preds))*plan.CPUPredTime
}

func (e *exec) decoder(table string, id catalog.ObjectID, preds []plan.Pred, need []bool) (*rowDecoder, error) {
	sch, heap, idx, err := e.table(table, id, preds)
	if err != nil {
		return nil, err
	}
	d := &rowDecoder{e: e, heap: heap, row: make(types.Tuple, sch.Len()), preds: preds, idx: idx, perRow: rowCPU(preds)}
	if need != nil {
		d.mask = make([]bool, sch.Len())
		copy(d.mask, need)
		for _, p := range idx {
			d.mask[p] = true
		}
	}
	return d, nil
}

// fetch reads the row an index entry points at and charges its CPU. It
// returns the row's tuple, borrowed until the next fetch, and whether it
// passed the predicates.
func (d *rowDecoder) fetch(rid pagestore.RID) (types.Tuple, bool, error) {
	rec, err := d.heap.Fetch(d.e.st.Pool(), d.e.acct, rid)
	if err != nil {
		return nil, false, err
	}
	if _, err := types.DecodeTupleInto(d.row, rec, d.mask); err != nil {
		return nil, false, err
	}
	d.e.acct.ChargeCPU(d.perRow)
	for i, p := range d.preds {
		if !p.Matches(d.row[d.idx[i]]) {
			return d.row, false, nil
		}
	}
	return d.row, true, nil
}

// Decoded keeps, for one database, the decoded columns of every heap page
// a sequential scan has read in one write epoch, keyed by object and page.
// A page decoded in another epoch drops every page of the one held, so a
// page is decoded again after any write to the database. Entries are
// never changed once made, so scans on several sessions at once may read
// one while another adds one. It goes when the database goes. The zero
// Decoded is empty and ready to use.
type Decoded struct {
	mu    sync.Mutex
	epoch uint64 // the epoch pages were decoded in
	pages map[bufferpool.PageKey]*types.PageColumns
}

// get returns the page's columns as decoded in epoch, or nil.
func (d *Decoded) get(key bufferpool.PageKey, epoch uint64) *types.PageColumns {
	d.mu.Lock()
	defer d.mu.Unlock()
	if epoch != d.epoch {
		return nil
	}
	return d.pages[key]
}

// put keeps the page's columns as decoded in epoch, first dropping the
// pages of any other epoch.
func (d *Decoded) put(key bufferpool.PageKey, epoch uint64, cols *types.PageColumns) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if epoch != d.epoch {
		d.epoch = epoch
		clear(d.pages)
	}
	if d.pages == nil {
		d.pages = make(map[bufferpool.PageKey]*types.PageColumns)
	}
	d.pages[key] = cols
}

// seqScan reads the table page by page, each page's records decoded once
// per write epoch into the database's Decoded. On each page it first
// evaluates the predicates a column at a time into a selection, then walks
// the rows in slot order, charging each row's CPU where a row-at-a-time
// scan would, and emits each selected row's wanted columns in one reused
// row. A record that does not decode ends the scan with its error after
// the rows before it, as it would row at a time.
func (e *exec) seqScan(s *plan.SeqScan, need []bool, emit func(types.Tuple) bool) error {
	sch, heap, idx, err := e.table(s.Table, s.TableID, s.Filter)
	if err != nil {
		return err
	}
	perRow, width := rowCPU(s.Filter), sch.Len()
	row, out := make(types.Tuple, width), wanted(need, 0, width)
	decoded, epoch := e.st.Decoded(), e.st.Epoch()
	var (
		recs [][]byte
		strs []byte
		sel  []bool
	)
	heap.ScanPages(e.st.Pool(), e.acct, func(pg int, p *pagestore.Page) bool {
		key := bufferpool.PageKey{Object: s.TableID, Page: uint32(pg)}
		cols := decoded.get(key, epoch)
		if cols == nil {
			recs = p.Records(recs[:0])
			cols, strs = types.DecodePage(recs, width, strs)
			decoded.put(key, epoch, cols)
		}
		sel = selectRows(sel, cols, s.Filter, idx)
		for r, ok := range sel {
			e.acct.ChargeCPU(perRow)
			if !ok {
				continue
			}
			for _, c := range out {
				row[c] = cols.Value(c, r)
			}
			if !emit(row) {
				return false
			}
		}
		err = cols.Err()
		return err == nil
	})
	return err
}

// selectRows marks in sel, resized to the page's rows, the rows that pass
// every predicate, evaluating one predicate at a time down its column. An
// int or date column compared with int or date bounds is filtered on its
// words (plan.Pred.IntRange); any other goes value by value through
// plan.Pred.Matches.
func selectRows(sel []bool, cols *types.PageColumns, preds []plan.Pred, idx []int) []bool {
	sel = slices.Grow(sel[:0], cols.Rows())[:cols.Rows()]
	for r := range sel {
		sel[r] = true
	}
	for i, p := range preds {
		words, kind, uniform := cols.Column(idx[i])
		if lo, hi, ok := p.IntRange(); ok && uniform && (kind == types.KindInt || kind == types.KindDate) {
			for r, w := range words {
				sel[r] = sel[r] && lo <= int64(w) && int64(w) <= hi
			}
			continue
		}
		for r := range sel {
			sel[r] = sel[r] && p.Matches(cols.Value(idx[i], r))
		}
	}
	return sel
}

// rangeBounds converts an index-scan predicate into B+-tree range bounds.
func rangeBounds(s *plan.IndexScan) (lo, hi []byte, loIncl, hiIncl bool) {
	key := func(v types.Value) []byte { return types.EncodeKey(nil, v) }
	switch s.Op {
	case plan.Eq:
		return key(s.Lo), key(s.Lo), true, true
	case plan.Lt:
		return nil, key(s.Lo), true, false
	case plan.Le:
		return nil, key(s.Lo), true, true
	case plan.Gt:
		return key(s.Lo), nil, false, true
	case plan.Ge:
		return key(s.Lo), nil, true, true
	case plan.Between:
		return key(s.Lo), key(s.Hi), true, true
	default:
		return nil, nil, true, true
	}
}

func (e *exec) indexScan(s *plan.IndexScan, need []bool, emit func(types.Tuple) bool) error {
	d, err := e.decoder(s.Table, s.TableID, s.Residual, need)
	if err != nil {
		return err
	}
	tree := e.st.Tree(s.IndexID)
	if tree == nil {
		return fmt.Errorf("executor: no tree for index %q", s.Index)
	}
	lo, hi, loIncl, hiIncl := rangeBounds(s)
	var innerErr error
	tree.Range(e.st.Pool(), e.acct, lo, hi, loIncl, hiIncl, func(_ []byte, rid pagestore.RID) bool {
		e.acct.ChargeCPU(plan.CPUIndexTime)
		tu, ok, err := d.fetch(rid)
		if err != nil {
			innerErr = err
			return false
		}
		return !ok || emit(tu)
	})
	return innerErr
}

// colPos finds a qualified column in a node's output schema.
func colPos(sch []plan.ColRef, c plan.ColRef) (int, error) {
	for i, s := range sch {
		if s == c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("executor: column %v not in schema %v", c, sch)
}

// widen returns what a join asks of the child holding positions [lo, hi) of
// its schema: the parent's need there plus the join key (nil stays all).
func widen(need []bool, lo, hi, key int) []bool {
	if need == nil {
		return nil
	}
	ask := append([]bool(nil), need[lo:hi]...)
	ask[key] = true
	return ask
}

// wanted lists, relative to lo, the positions in [lo, hi) that need marks.
func wanted(need []bool, lo, hi int) []int {
	var out []int
	for p := lo; p < hi; p++ {
		if need == nil || need[p] {
			out = append(out, p-lo)
		}
	}
	return out
}

// copyAt copies the listed positions of src to the same positions of dst.
func copyAt(dst, src types.Tuple, pos []int) {
	for _, p := range pos {
		dst[p] = src[p]
	}
}

// chunkRows is how many build rows one chunk of a buildSide holds.
const chunkRows = 256

// buildSide retains a hash join's build rows, packed into chunks rather
// than one allocation a row: the wanted columns of each, its key word — a
// number's types.KeyBits, a string's hashString — and, for a string key
// only, the string. When the build input ends, index links the rows into
// chains, one per slot of a power-of-two directory at least twice as long
// as the rows are many, each chain in arrival order; a probe hashes its key
// once and walks its slot's chain comparing key words, and strings. A
// validation run executes hundreds of joins, so a build side, with its
// directory, and its chunks come from the database's Spare and go back once
// the probe is done. Chunks go back one by one: a join holds as many as its
// rows fill, whichever joins filled them before.
type buildSide struct {
	spare  *Spare
	keep   []int // the columns retained
	n      int32
	chunks []*buildChunk
	heads  []int32 // the directory: each slot's first row (-1 = none)
	shift  uint    // 64 - log2(len(heads))
}

type buildChunk struct {
	vals []types.Value
	keys [chunkRows]uint64 // each row's key word
	next [chunkRows]int32  // the next row of each row's chain (-1 = none)
	str  [chunkRows]bool   // whether each row's key is a string
	strs []string          // the string keys; made at a chunk's first one
}

// joinKey is a join key as a build side keeps and probes it: a word, and
// for a string the string itself, which the word hashes. Two keys are equal
// exactly when their values' types.EncodeKey bytes are: an int meets a date
// of the same day number, -0 does not meet +0, and a string never meets a
// number — EncodeKey can equate the two only by a coincidence of bytes, and
// no schema compares a string column with a numeric one.
type joinKey struct {
	word  uint64
	str   string
	isStr bool
}

// keyOf returns *v's key. It takes v by address: a value handed over in
// registers is spilled a field at a time and read back whole, which stalls
// on every row.
func keyOf(v *types.Value) joinKey {
	if v.Kind == types.KindString {
		return joinKey{word: hashString(v.Str), str: v.Str, isStr: true}
	}
	return joinKey{word: types.KeyBits(*v)}
}

// hashString is 64-bit FNV-1a: a fixed hash, so what a join does is the
// same in every process.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Spare holds the build storage of a database's finished hash joins — build
// sides, each with its directory, and chunks — for its next ones to reuse:
// it grows to the most that joins running at once on the database have
// held, and goes when the database goes. It is not a sync.Pool: under the
// race detector a sync.Pool drops a quarter of what it is given at random,
// and what a query allocates must not depend on chance. The zero Spare is
// empty and ready to use.
type Spare struct {
	mu     sync.Mutex
	sides  []*buildSide
	chunks []*buildChunk
}

// side takes an empty build side retaining the keep columns.
func (s *Spare) side(keep []int) *buildSide {
	var b *buildSide
	s.mu.Lock()
	if n := len(s.sides); n > 0 {
		b, s.sides = s.sides[n-1], s.sides[:n-1]
	}
	s.mu.Unlock()
	if b == nil {
		b = &buildSide{spare: s}
	}
	b.keep = keep
	return b
}

// chunk takes an empty chunk with room for chunkRows rows of w columns.
func (s *Spare) chunk(w int) *buildChunk {
	var c *buildChunk
	s.mu.Lock()
	if n := len(s.chunks); n > 0 {
		c, s.chunks = s.chunks[n-1], s.chunks[:n-1]
	}
	s.mu.Unlock()
	if c == nil {
		c = new(buildChunk)
	}
	if cap(c.vals) < chunkRows*w {
		c.vals = make([]types.Value, 0, chunkRows*w)
	}
	return c
}

// release gives b and its chunks back to its Spare. Their values and
// string keys are cleared first so that the Spare keeps no string alive;
// nothing b lent out outlives the probe, since a consumer that keeps a row
// copies it. The directory goes back as it is: index fills it anew.
func (b *buildSide) release() {
	for _, c := range b.chunks {
		clear(c.vals)
		c.vals = c.vals[:0]
		clear(c.strs)
	}
	s := b.spare
	s.mu.Lock()
	s.chunks = append(s.chunks, b.chunks...)
	clear(b.chunks)
	b.keep, b.n, b.chunks = nil, 0, b.chunks[:0]
	s.sides = append(s.sides, b)
	s.mu.Unlock()
}

// add retains tu as the next row, with tu[key] as its key.
func (b *buildSide) add(tu types.Tuple, key int) {
	r := b.n
	b.n++
	if r%chunkRows == 0 {
		b.chunks = append(b.chunks, b.spare.chunk(len(b.keep)))
	}
	c, i := b.chunks[r/chunkRows], r%chunkRows
	for _, p := range b.keep {
		c.vals = append(c.vals, tu[p])
	}
	k := keyOf(&tu[key])
	c.keys[i], c.str[i] = k.word, k.isStr
	if k.isStr {
		if c.strs == nil {
			c.strs = make([]string, chunkRows)
		}
		c.strs[i] = k.str
	}
}

// index builds the directory over the rows added: at least twice as many
// slots as rows, a power of two, each slot heading the chain of the rows
// whose key words it holds. It links the last row first, so that each
// chain lists its rows in arrival order.
func (b *buildSide) index() {
	size := 1
	for size < 2*int(b.n) {
		size <<= 1
	}
	b.shift = uint(64 - bits.TrailingZeros(uint(size)))
	b.heads = slices.Grow(b.heads[:0], size)[:size]
	for i := range b.heads {
		b.heads[i] = -1
	}
	for r := b.n - 1; r >= 0; r-- {
		c, i := b.chunks[r/chunkRows], r%chunkRows
		head := &b.heads[types.SpreadKey(c.keys[i])>>b.shift]
		c.next[i], *head = *head, r
	}
}

// first returns the first row, in arrival order, whose key is k (-1 =
// none).
func (b *buildSide) first(k joinKey) int32 {
	return b.seek(b.heads[types.SpreadKey(k.word)>>b.shift], k)
}

// seek returns the first row whose key is k along the chain from r on (-1
// = none).
func (b *buildSide) seek(r int32, k joinKey) int32 {
	for r >= 0 {
		c, i := b.chunks[r/chunkRows], r%chunkRows
		if c.keys[i] == k.word && c.str[i] == k.isStr && (!k.isStr || c.strs[i] == k.str) {
			return r
		}
		r = c.next[i]
	}
	return -1
}

// row returns the retained columns of row r, whose key is k, and the next
// row with key k (-1 = none).
func (b *buildSide) row(r int32, k joinKey) (types.Tuple, int32) {
	c, i, w := b.chunks[r/chunkRows], int(r%chunkRows), len(b.keep)
	return c.vals[i*w : (i+1)*w], b.seek(c.next[i], k)
}

func (e *exec) hashJoin(j *plan.Join, need []bool, emit func(types.Tuple) bool) error {
	outerSch, innerSch := j.Outer.Schema(), j.Inner.Schema()
	innerPos, err := colPos(innerSch, j.InnerCol)
	if err != nil {
		return err
	}
	outerPos, err := colPos(outerSch, j.OuterCol)
	if err != nil {
		return err
	}
	wo, w := len(outerSch), len(outerSch)+len(innerSch)
	// Build phase: hash the inner input in memory, retaining of each row
	// the columns the parent reads.
	build := e.st.Spare().side(wanted(need, wo, w))
	defer build.release()
	err = e.run(j.Inner, widen(need, wo, w, innerPos), func(tu types.Tuple) bool {
		e.acct.ChargeCPU(plan.CPUHashTime)
		build.add(tu, innerPos)
		return true
	})
	if err != nil {
		return err
	}
	build.index()
	// Probe phase: matches are assembled in one reused tuple.
	joined, outerKeep := make(types.Tuple, w), wanted(need, 0, wo)
	return e.run(j.Outer, widen(need, 0, wo, outerPos), func(outer types.Tuple) bool {
		e.acct.ChargeCPU(plan.CPUHashTime)
		k := keyOf(&outer[outerPos])
		for r := build.first(k); r >= 0; {
			var inner types.Tuple
			inner, r = build.row(r, k)
			e.acct.ChargeCPU(plan.CPUTupleTime)
			copyAt(joined, outer, outerKeep)
			for i, p := range build.keep {
				joined[wo+p] = inner[i]
			}
			if !emit(joined) {
				return false
			}
		}
		return true
	})
}

func (e *exec) indexNLJoin(j *plan.Join, need []bool, emit func(types.Tuple) bool) error {
	outerSch := j.Outer.Schema()
	outerPos, err := colPos(outerSch, j.OuterCol)
	if err != nil {
		return err
	}
	wo, w := len(outerSch), len(outerSch)+len(j.InnerCols)
	var innerNeed []bool
	if need != nil {
		innerNeed = need[wo:]
	}
	d, err := e.decoder(j.InnerTable, j.InnerTableID, j.InnerResidual, innerNeed)
	if err != nil {
		return err
	}
	tree := e.st.Tree(j.InnerIndexID)
	if tree == nil {
		return fmt.Errorf("executor: no tree for index %q", j.InnerIndex)
	}
	joined, outerKeep, innerKeep := make(types.Tuple, w), wanted(need, 0, wo), wanted(need, wo, w)
	var keyBuf []byte
	var innerErr error
	err = e.run(j.Outer, widen(need, 0, wo, outerPos), func(outer types.Tuple) bool {
		e.acct.ChargeCPU(plan.CPUIndexTime)
		keyBuf = types.EncodeKey(keyBuf[:0], outer[outerPos])
		keep := true
		tree.Range(e.st.Pool(), e.acct, keyBuf, keyBuf, true, true, func(_ []byte, rid pagestore.RID) bool {
			inner, ok, err := d.fetch(rid)
			if err != nil {
				innerErr = err
				return false
			}
			if ok {
				copyAt(joined, outer, outerKeep)
				copyAt(joined[wo:], inner, innerKeep)
				keep = emit(joined)
			}
			return keep
		})
		return keep && innerErr == nil
	})
	if innerErr != nil {
		return innerErr
	}
	return err
}
