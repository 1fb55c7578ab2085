package engine

import (
	"fmt"

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
	rec := types.EncodeTuple(nil, tu)
	rid, err := heapInsert(heap, db.pool, ch, rec, wt)
	if err != nil {
		return err
	}
	var key []byte
	for _, ix := range db.Cat.TableIndexes(t.ID) {
		pos, err := db.colPositions(t, ix.Columns)
		if err != nil {
			return err
		}
		key = key[:0]
		for _, p := range pos {
			key = types.EncodeKey(key, tu[p])
		}
		db.trees[ix.ID].Insert(db.pool, ch, key, rid)
		ch.ChargeIO(ix.ID, wt, 1)
	}
	db.analyzed = false
	return nil
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
// match.
func (s *Session) LookupEq(indexName string, vals ...types.Value) ([]types.Tuple, []pagestore.RID, error) {
	db := s.db
	ix, err := db.Cat.IndexByName(indexName)
	if err != nil {
		return nil, nil, err
	}
	t := db.Cat.Table(ix.TableID)
	tree := db.trees[ix.ID]
	heap := db.heaps[t.ID]
	key := types.EncodeKey(nil, vals...)
	var tuples []types.Tuple
	var rids []pagestore.RID
	var innerErr error
	n := t.Schema.Len()
	prefix := len(vals) < len(ix.Columns)
	hi := key
	if prefix {
		// Prefix lookup: the encoded prefix is a lower bound; extend the
		// upper bound so all completions match.
		hi = append(append([]byte(nil), key...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	}
	tree.Range(db.pool, s.acct, key, hi, true, true, func(_ []byte, rid pagestore.RID) bool {
		s.acct.ChargeCPU(plan.CPUIndexTime)
		rec, err := heap.Fetch(db.pool, s.acct, rid)
		if err != nil {
			innerErr = err
			return false
		}
		tu, _, err := types.DecodeTuple(rec, n)
		if err != nil {
			innerErr = err
			return false
		}
		s.acct.ChargeCPU(plan.CPUTupleTime)
		tuples = append(tuples, tu)
		rids = append(rids, rid)
		return true
	})
	if innerErr != nil {
		return nil, nil, innerErr
	}
	return tuples, rids, nil
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
	oldRec, err := heap.Fetch(db.pool, s.acct, rid)
	if err != nil {
		return err
	}
	oldTu, _, err := types.DecodeTuple(oldRec, t.Schema.Len())
	if err != nil {
		return err
	}
	s.acct.ChargeCPU(plan.CPUPerRowWrite)
	if err := heap.Update(db.pool, s.acct, rid, types.EncodeTuple(nil, newTu)); err != nil {
		return err
	}
	for _, ix := range db.Cat.TableIndexes(t.ID) {
		pos, err := db.colPositions(t, ix.Columns)
		if err != nil {
			return err
		}
		changed := false
		for _, p := range pos {
			if !types.Equal(oldTu[p], newTu[p]) {
				changed = true
				break
			}
		}
		if !changed {
			continue
		}
		var oldKey, newKey []byte
		for _, p := range pos {
			oldKey = types.EncodeKey(oldKey, oldTu[p])
			newKey = types.EncodeKey(newKey, newTu[p])
		}
		tree := db.trees[ix.ID]
		tree.Delete(db.pool, s.acct, oldKey, rid)
		tree.Insert(db.pool, s.acct, newKey, rid)
		s.acct.ChargeIO(ix.ID, device.RandWrite, 1)
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
	oldRec, err := heap.Fetch(db.pool, s.acct, rid)
	if err != nil {
		return err
	}
	oldTu, _, err := types.DecodeTuple(oldRec, t.Schema.Len())
	if err != nil {
		return err
	}
	s.acct.ChargeCPU(plan.CPUPerRowWrite)
	if err := heap.Delete(db.pool, s.acct, rid); err != nil {
		return err
	}
	var key []byte
	for _, ix := range db.Cat.TableIndexes(t.ID) {
		pos, err := db.colPositions(t, ix.Columns)
		if err != nil {
			return err
		}
		key = key[:0]
		for _, p := range pos {
			key = types.EncodeKey(key, oldTu[p])
		}
		db.trees[ix.ID].Delete(db.pool, s.acct, key, rid)
		s.acct.ChargeIO(ix.ID, device.RandWrite, 1)
	}
	return nil
}
