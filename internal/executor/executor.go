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
// accountant via the shared buffer pool. The executor holds no state of
// its own between runs; all device accounting flows through the
// iosim.Accountant it is handed, which is what makes profiles captured
// during execution exact (the online collector taps that same stream).
//
// Tuples are borrowed: the tuple an operator hands to its consumer is valid
// for that one call, because scans decode every record into one reused row
// and joins assemble every match in one reused tuple. Only what retains a
// row copies it — Run into Result.Tuples, a hash join's build side into its
// chunks, an aggregate its group keys and extremes. And each consumer says,
// top-down, which columns it reads (nil = all, which is what Run asks of
// the root, so results are complete): an aggregate needs its group-by and
// aggregated columns, a join adds its key to what it asks of each child, a
// scan adds its predicates' columns and skips decoding the rest. Neither
// rule changes a charge: the same rows flow in the same order through the
// same page accesses, so virtual time, profiles and results are exactly
// those of an executor that materialised every row (testdata/tpch.golden).
package executor

import (
	"fmt"
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
}

// MaxResultTuples caps how many output tuples Run materialises in the
// Result (counting always continues past the cap).
const MaxResultTuples = 10000

// Result summarises a query execution.
type Result struct {
	Rows   int64
	Tuples []types.Tuple // first MaxResultTuples output rows
}

// Run executes a plan on behalf of one worker, charging I/O and CPU to the
// accountant, and returns the result.
func Run(st Storage, acct *iosim.Accountant, p *plan.Plan) (*Result, error) {
	return (&exec{st: st, acct: acct}).collect(p.Root)
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

func matchAll(tu types.Tuple, preds []plan.Pred, idx []int) bool {
	for i, p := range preds {
		if !p.Matches(tu[idx[i]]) {
			return false
		}
	}
	return true
}

// rowDecoder turns one table's heap records into the tuples an operator
// emits. It decodes into one reused row only the columns somebody reads —
// the consumer's need plus the predicates' — and evaluates the predicates
// there.
type rowDecoder struct {
	e      *exec
	heap   *pagestore.HeapFile
	row    types.Tuple
	mask   []bool // columns decoded into row (nil = all)
	preds  []plan.Pred
	idx    []int
	perRow time.Duration
}

func (e *exec) decoder(table string, id catalog.ObjectID, preds []plan.Pred, need []bool) (*rowDecoder, error) {
	sch, heap := e.st.TableSchema(table), e.st.Heap(id)
	if sch == nil || heap == nil {
		return nil, fmt.Errorf("executor: no schema or heap for table %q", table)
	}
	idx, err := predIdx(sch, preds)
	if err != nil {
		return nil, err
	}
	d := &rowDecoder{e: e, heap: heap, row: make(types.Tuple, sch.Len()), preds: preds, idx: idx,
		perRow: plan.CPUTupleTime + time.Duration(len(preds))*plan.CPUPredTime}
	if need != nil {
		d.mask = make([]bool, sch.Len())
		copy(d.mask, need)
		for _, p := range idx {
			d.mask[p] = true
		}
	}
	return d, nil
}

// decode charges one row's CPU and returns the record's tuple, borrowed
// until the next decode, and whether it passed the predicates.
func (d *rowDecoder) decode(rec []byte) (types.Tuple, bool, error) {
	if _, err := types.DecodeTupleInto(d.row, rec, d.mask); err != nil {
		return nil, false, err
	}
	d.e.acct.ChargeCPU(d.perRow)
	return d.row, matchAll(d.row, d.preds, d.idx), nil
}

// fetch is decode on the row an index entry points at.
func (d *rowDecoder) fetch(rid pagestore.RID) (types.Tuple, bool, error) {
	rec, err := d.heap.Fetch(d.e.st.Pool(), d.e.acct, rid)
	if err != nil {
		return nil, false, err
	}
	return d.decode(rec)
}

func (e *exec) seqScan(s *plan.SeqScan, need []bool, emit func(types.Tuple) bool) error {
	d, err := e.decoder(s.Table, s.TableID, s.Filter, need)
	if err != nil {
		return err
	}
	var decodeErr error
	scanErr := d.heap.Scan(e.st.Pool(), e.acct, func(_ pagestore.RID, rec []byte) bool {
		tu, ok, err := d.decode(rec)
		if err != nil {
			decodeErr = err
			return false
		}
		return !ok || emit(tu)
	})
	if decodeErr != nil {
		return decodeErr
	}
	return scanErr
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

// buildSide retains a hash join's build rows: the wanted columns of each,
// packed into chunks rather than one allocation a row, with the link that
// chains the rows of one key in arrival order (tail is kept on a key's
// first row).
type buildSide struct {
	keep   []int // the columns retained
	n      int32
	chunks []*buildChunk
}

type buildChunk struct {
	vals       []types.Value
	next, tail [chunkRows]int32
}

// add retains tu as the next row, chained behind the rows of the key whose
// first row is head (-1 = a new key), and returns its number.
func (b *buildSide) add(tu types.Tuple, head int32) int32 {
	r := b.n
	b.n++
	if r%chunkRows == 0 {
		b.chunks = append(b.chunks, &buildChunk{vals: make([]types.Value, 0, chunkRows*len(b.keep))})
	}
	c := b.chunks[r/chunkRows]
	for _, p := range b.keep {
		c.vals = append(c.vals, tu[p])
	}
	c.next[r%chunkRows], c.tail[r%chunkRows] = -1, r
	if head >= 0 {
		h := b.chunks[head/chunkRows]
		last := h.tail[head%chunkRows]
		b.chunks[last/chunkRows].next[last%chunkRows] = r
		h.tail[head%chunkRows] = r
	}
	return r
}

// row returns the retained columns of row r and the next row of its key
// (-1 = none).
func (b *buildSide) row(r int32) (types.Tuple, int32) {
	c, i, w := b.chunks[r/chunkRows], int(r%chunkRows), len(b.keep)
	return c.vals[i*w : (i+1)*w], c.next[i]
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
	heads := make(map[string]int32) // key -> its first build row
	build := buildSide{keep: wanted(need, wo, w)}
	var keyBuf []byte
	err = e.run(j.Inner, widen(need, wo, w, innerPos), func(tu types.Tuple) bool {
		e.acct.ChargeCPU(plan.CPUHashTime)
		keyBuf = types.EncodeKey(keyBuf[:0], tu[innerPos])
		if head, ok := heads[string(keyBuf)]; ok {
			build.add(tu, head)
		} else {
			heads[string(keyBuf)] = build.add(tu, -1)
		}
		return true
	})
	if err != nil {
		return err
	}
	// Probe phase: matches are assembled in one reused tuple.
	joined, outerKeep := make(types.Tuple, w), wanted(need, 0, wo)
	return e.run(j.Outer, widen(need, 0, wo, outerPos), func(outer types.Tuple) bool {
		e.acct.ChargeCPU(plan.CPUHashTime)
		keyBuf = types.EncodeKey(keyBuf[:0], outer[outerPos])
		r, ok := heads[string(keyBuf)]
		if !ok {
			return true
		}
		for r >= 0 {
			var inner types.Tuple
			inner, r = build.row(r)
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
