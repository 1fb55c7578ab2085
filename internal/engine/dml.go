package engine

import (
	"fmt"
	"slices"

	"dotprov/internal/bufferpool"
	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/pagestore"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// insert is the shared write path: encode, append to the heap, maintain
// every index. Writes are charged per row on each touched object, matching
// how the paper benchmarked write costs (Table 1 SW/RW are ms/row).
// `random` selects RandWrite charging (OLTP inserts landing in arbitrary
// key positions); bulk loads and monotonically increasing inserts use
// SeqWrite.
func (db *DB) insert(ch bufferpool.IOCharger, table string, tu types.Tuple, random bool) error {
	t, err := db.Cat.TableByName(table)
	if err != nil {
		return err
	}
	if len(tu) != t.Schema.Len() {
		return fmt.Errorf("engine: insert into %q: %d values for %d columns", table, len(tu), t.Schema.Len())
	}
	heap := db.heaps[t.ID]
	wt := device.SeqWrite
	if random {
		wt = device.RandWrite
	}
	db.rec = types.EncodeTuple(db.rec[:0], tu)
	rid, err := heapInsert(heap, db.pool, ch, db.rec, wt)
	if err != nil {
		return err
	}
	for _, ix := range db.writes[t.ID].indexes {
		db.key = encodeKey(db.key[:0], tu, ix.pos)
		ix.tree.Insert(db.pool, ch, db.key, rid)
		ch.ChargeIO(ix.id, wt, 1)
	}
	db.analyzed = false
	return nil
}

// encodeKey appends the index key of the columns at pos of tu to dst.
func encodeKey(dst []byte, tu types.Tuple, pos []int) []byte {
	for _, p := range pos {
		dst = types.EncodeKey(dst, tu[p])
	}
	return dst
}

// oldKeys fetches the row at rid and decodes its index-key columns into the
// DB's reused row, which it returns; the other positions hold whatever an
// earlier row left there. The fetch is charged like any RID read.
func (db *DB) oldKeys(ch bufferpool.IOCharger, t *catalog.Table, heap *pagestore.HeapFile, rid pagestore.RID) (types.Tuple, error) {
	rec, err := heap.Fetch(db.pool, ch, rid)
	if err != nil {
		return nil, err
	}
	n := t.Schema.Len()
	if cap(db.old) < n {
		db.old = make(types.Tuple, n)
	}
	old := db.old[:n]
	if _, err := types.DecodeTupleInto(old, rec, db.writes[t.ID].mask); err != nil {
		return nil, err
	}
	return old, nil
}

// heapInsert wraps HeapFile.Insert to honour the caller's choice of write
// type. HeapFile charges SeqWrite itself; for random inserts we charge the
// difference explicitly.
func heapInsert(h *pagestore.HeapFile, pool *bufferpool.Pool, ch bufferpool.IOCharger, rec []byte, wt device.IOType) (pagestore.RID, error) {
	if wt == device.SeqWrite {
		return h.Insert(pool, ch, rec)
	}
	rid, err := h.Insert(pool, swapWriteCharger{ch}, rec)
	return rid, err
}

// swapWriteCharger converts the heap's SeqWrite row charge into RandWrite.
type swapWriteCharger struct {
	inner bufferpool.IOCharger
}

func (s swapWriteCharger) ChargeIO(id catalog.ObjectID, t device.IOType, n int64) {
	if t == device.SeqWrite {
		t = device.RandWrite
	}
	s.inner.ChargeIO(id, t, n)
}

// Insert appends a row within a session (sequential write pattern).
func (s *Session) Insert(table string, tu types.Tuple) error {
	s.acct.ChargeCPU(plan.CPUPerRowWrite)
	return s.db.insert(s.acct, table, tu, false)
}

// InsertRandom appends a row whose key lands in an arbitrary position
// (OLTP-style), charged as a random write.
func (s *Session) InsertRandom(table string, tu types.Tuple) error {
	s.acct.ChargeCPU(plan.CPUPerRowWrite)
	return s.db.insert(s.acct, table, tu, true)
}

// LookupEq returns the tuples (and their RIDs) whose index key equals the
// given values, charging the index descent and one random heap read per
// match. Fewer values than the index has columns look up a key prefix.
//
// The result is borrowed from the session: the tuples, their values and
// the RID slice are valid until the session's next LookupEq, which reuses
// their storage. A caller that keeps a tuple past that clones it, and one
// that looks up again while iterating a result copies out what it still
// needs first. UpdateByRID, DeleteByRID and the inserts leave the result
// untouched, and the values passed in may come from the result being
// replaced: the search key is encoded before any match is decoded.
func (s *Session) LookupEq(indexName string, vals ...types.Value) ([]types.Tuple, []pagestore.RID, error) {
	db := s.db
	ix, err := db.Cat.IndexByName(indexName)
	if err != nil {
		return nil, nil, err
	}
	t := db.Cat.Table(ix.TableID)
	tree := db.trees[ix.ID]
	heap := db.heaps[t.ID]
	s.key = types.EncodeKey(s.key[:0], vals...)
	hi := s.key
	if len(vals) < len(ix.Columns) {
		// Prefix lookup: the encoded prefix is a lower bound; extend the
		// upper bound so all completions match.
		s.hi = append(append(s.hi[:0], s.key...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
		hi = s.hi
	}
	if db.lookupHook != nil {
		db.lookupHook(s)
	}
	n := t.Schema.Len()
	s.vals, s.rids = s.vals[:0], s.rids[:0]
	var innerErr error
	tree.Range(db.pool, s.acct, s.key, hi, true, true, func(_ []byte, rid pagestore.RID) bool {
		s.acct.ChargeCPU(plan.CPUIndexTime)
		rec, err := heap.Fetch(db.pool, s.acct, rid)
		if err != nil {
			innerErr = err
			return false
		}
		off := len(s.vals)
		s.vals = slices.Grow(s.vals, n)[:off+n]
		if _, err := types.DecodeTupleInto(s.vals[off:], rec, nil); err != nil {
			innerErr = err
			return false
		}
		s.acct.ChargeCPU(plan.CPUTupleTime)
		s.rids = append(s.rids, rid)
		return true
	})
	if innerErr != nil {
		return nil, nil, innerErr
	}
	// The slab may have moved while it grew: slice the tuples out of it
	// only now, each capped so an append to one cannot reach the next.
	s.tuples = s.tuples[:0]
	for i := range s.rids {
		s.tuples = append(s.tuples, s.vals[i*n:(i+1)*n:(i+1)*n])
	}
	return s.tuples, s.rids, nil
}

// UpdateByRID rewrites a row in place (random write), maintaining any index
// whose key columns changed.
func (s *Session) UpdateByRID(table string, rid pagestore.RID, newTu types.Tuple) error {
	db := s.db
	t, err := db.Cat.TableByName(table)
	if err != nil {
		return err
	}
	if len(newTu) != t.Schema.Len() {
		return fmt.Errorf("engine: update %q: %d values for %d columns", table, len(newTu), t.Schema.Len())
	}
	heap := db.heaps[t.ID]
	oldTu, err := db.oldKeys(s.acct, t, heap, rid)
	if err != nil {
		return err
	}
	s.acct.ChargeCPU(plan.CPUPerRowWrite)
	db.rec = types.EncodeTuple(db.rec[:0], newTu)
	if err := heap.Update(db.pool, s.acct, rid, db.rec); err != nil {
		return err
	}
	for _, ix := range db.writes[t.ID].indexes {
		changed := false
		for _, p := range ix.pos {
			if !types.Equal(oldTu[p], newTu[p]) {
				changed = true
				break
			}
		}
		if !changed {
			continue
		}
		db.oldKey = encodeKey(db.oldKey[:0], oldTu, ix.pos)
		db.key = encodeKey(db.key[:0], newTu, ix.pos)
		ix.tree.Delete(db.pool, s.acct, db.oldKey, rid)
		ix.tree.Insert(db.pool, s.acct, db.key, rid)
		s.acct.ChargeIO(ix.id, device.RandWrite, 1)
	}
	return nil
}

// DeleteByRID removes a row and its index entries (random writes).
func (s *Session) DeleteByRID(table string, rid pagestore.RID) error {
	db := s.db
	t, err := db.Cat.TableByName(table)
	if err != nil {
		return err
	}
	heap := db.heaps[t.ID]
	oldTu, err := db.oldKeys(s.acct, t, heap, rid)
	if err != nil {
		return err
	}
	s.acct.ChargeCPU(plan.CPUPerRowWrite)
	if err := heap.Delete(db.pool, s.acct, rid); err != nil {
		return err
	}
	for _, ix := range db.writes[t.ID].indexes {
		db.key = encodeKey(db.key[:0], oldTu, ix.pos)
		ix.tree.Delete(db.pool, s.acct, db.key, rid)
		s.acct.ChargeIO(ix.id, device.RandWrite, 1)
	}
	return nil
}
