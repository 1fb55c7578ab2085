package executor

import (
	"encoding/binary"
	"math"
	"sync"
	"time"
	"unsafe"

	"dotprov/internal/bufferpool"
	"dotprov/internal/iosim"
	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// Traces is a database's memo of executed plans: for each plan Run has
// executed in the database's current write epoch, the page accesses it
// made in order, the CPU it charged and its result. A plan's page accesses
// are a function of the plan and the stored data alone — no operator
// branches on whether a page hit the pool, and the layout only prices a
// charge — so running the plan again is replaying them: through the
// session's own pool and accountant, each access hits or misses, and
// charges, exactly as executing the plan there would (see Run).
//
// A plan is keyed by everything its operators read — tables, index IDs,
// predicates with their values, column lists, join columns and algorithm,
// group-by, aggregates, limit — never by the optimizer's estimates, and by
// the storage's write epoch (Storage.Epoch). The first lookup in another
// epoch drops every trace of the one held, so the memo only ever holds
// plans of one epoch and replays none of data since written. Traces are
// never changed once kept, so sessions on several goroutines may replay
// one while another records. The memo stops recording once it holds
// maxTraceBytes. The zero Traces is empty and ready to use.
type Traces struct {
	mu    sync.Mutex
	epoch uint64 // the epoch of the plans held
	plans map[string]*trace
	bytes int64
	// scratch is a recording buffer a finished run gave back, for the next
	// one to record into.
	scratch []bufferpool.Access
}

// maxTraceBytes bounds what one database's memo holds: plans executed
// beyond it run without being recorded.
const maxTraceBytes = 64 << 20

// trace is what one execution of a plan did and returned.
type trace struct {
	accesses []bufferpool.Access
	cpu      time.Duration
	rows     int64
	tuples   []types.Tuple
}

// find returns the trace kept for root in epoch, first dropping the traces
// of any other epoch. When there is none it returns instead the key to keep
// root's trace under, or nil when root's trace is not to be kept: the memo
// is full, or root holds a node the executor does not know.
func (t *Traces) find(root plan.Node, epoch uint64) (key []byte, hit *trace) {
	w := planKey{b: make([]byte, 8, 256)}
	if !w.node(root) {
		return nil, nil
	}
	binary.LittleEndian.PutUint64(w.b, epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch != t.epoch {
		t.epoch, t.plans, t.bytes = epoch, nil, 0
	}
	if tr := t.plans[string(w.b)]; tr != nil {
		return nil, tr
	}
	if t.bytes >= maxTraceBytes {
		return nil, nil
	}
	return w.b, nil
}

// record executes root with st's pool recording its accesses, and keeps
// what the execution did under key.
func (t *Traces) record(key []byte, st Storage, acct *iosim.Accountant, root plan.Node) (*Result, error) {
	t.mu.Lock()
	rec := t.scratch[:0]
	t.scratch = nil
	t.mu.Unlock()
	pool := st.Pool()
	pool.Record(&rec)
	defer pool.Record(nil)
	cpu := acct.CPUTime()
	res, err := execute(st, acct, root)
	t.keep(key, rec, acct.CPUTime()-cpu, res)
	return res, err
}

// keep keeps, under key, a copy of the accesses recorded in rec, the CPU
// charged and the result — unless the memo has since been looked up in
// another epoch than key's, or another run kept the plan first — and takes
// rec back for the next recording. A nil res keeps nothing.
func (t *Traces) keep(key []byte, rec []bufferpool.Access, cpu time.Duration, res *Result) {
	var (
		tr   *trace
		size int64
	)
	if res != nil {
		tr = &trace{accesses: append([]bufferpool.Access(nil), rec...), cpu: cpu, rows: res.Rows}
		var vals int
		tr.tuples, vals = copyTuples(res.Tuples)
		size = int64(len(key)) + int64(len(rec))*int64(unsafe.Sizeof(bufferpool.Access{})) +
			int64(len(tr.tuples))*int64(unsafe.Sizeof(types.Tuple{})) + int64(vals)*int64(unsafe.Sizeof(types.Value{}))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(rec) > cap(t.scratch) {
		t.scratch = rec
	}
	if tr == nil || binary.LittleEndian.Uint64(key) != t.epoch || t.plans[string(key)] != nil {
		return
	}
	if t.plans == nil {
		t.plans = make(map[string]*trace)
	}
	t.plans[string(key)] = tr
	t.bytes += size
}

// replay makes the traced run's page accesses through pool on behalf of
// acct, charges its CPU and returns a copy of its result.
func (tr *trace) replay(pool *bufferpool.Pool, acct *iosim.Accountant) *Result {
	pool.Replay(acct, tr.accesses)
	acct.ChargeCPU(tr.cpu)
	res := &Result{Rows: tr.rows}
	res.Tuples, _ = copyTuples(tr.tuples)
	return res
}

// copyTuples copies tuples into one slab of values, each tuple capped so
// that an append to one cannot reach the next, and returns the copy and
// the number of values it holds. No tuples copy to nil.
func copyTuples(tuples []types.Tuple) ([]types.Tuple, int) {
	if len(tuples) == 0 {
		return nil, 0
	}
	n := 0
	for _, tu := range tuples {
		n += len(tu)
	}
	vals, out := make([]types.Value, 0, n), make([]types.Tuple, len(tuples))
	for i, tu := range tuples {
		at := len(vals)
		vals = append(vals, tu...)
		out[i] = vals[at:len(vals):len(vals)]
	}
	return out, n
}

// planKey builds a plan's key: a canonical encoding of every field of its
// nodes the executor reads, each string and list prefixed with its length
// and each node with its kind, so two plans share a key exactly when the
// executor would do the same with them.
type planKey struct{ b []byte }

func (w *planKey) uint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

func (w *planKey) str(s string) {
	w.uint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *planKey) value(v types.Value) {
	w.b = append(w.b, byte(v.Kind))
	w.b = binary.AppendVarint(w.b, v.Int)
	w.uint(math.Float64bits(v.F))
	w.str(v.Str)
}

func (w *planKey) preds(ps []plan.Pred) {
	w.uint(uint64(len(ps)))
	for _, p := range ps {
		w.str(p.Table)
		w.str(p.Column)
		w.b = append(w.b, byte(p.Op))
		w.value(p.Lo)
		w.value(p.Hi)
	}
}

func (w *planKey) cols(cs []plan.ColRef) {
	w.uint(uint64(len(cs)))
	for _, c := range cs {
		w.str(c.Table)
		w.str(c.Column)
	}
}

// node appends n's encoding and reports whether the executor knows n.
func (w *planKey) node(n plan.Node) bool {
	switch t := n.(type) {
	case nil:
		w.b = append(w.b, 0)
	case *plan.SeqScan:
		w.b = append(w.b, 1)
		w.str(t.Table)
		w.uint(uint64(t.TableID))
		w.preds(t.Filter)
		w.cols(t.Cols)
	case *plan.IndexScan:
		w.b = append(w.b, 2)
		w.str(t.Table)
		w.uint(uint64(t.TableID))
		w.str(t.Index)
		w.uint(uint64(t.IndexID))
		w.str(t.Column)
		w.b = append(w.b, byte(t.Op))
		w.value(t.Lo)
		w.value(t.Hi)
		w.preds(t.Residual)
		w.cols(t.Cols)
	case *plan.Join:
		w.b = append(w.b, 3, byte(t.Algo))
		w.str(t.OuterCol.Table)
		w.str(t.OuterCol.Column)
		w.str(t.InnerCol.Table)
		w.str(t.InnerCol.Column)
		w.str(t.InnerTable)
		w.uint(uint64(t.InnerTableID))
		w.str(t.InnerIndex)
		w.uint(uint64(t.InnerIndexID))
		w.preds(t.InnerResidual)
		w.cols(t.InnerCols)
		return w.node(t.Outer) && w.node(t.Inner)
	case *plan.AggNode:
		w.b = append(w.b, 4)
		w.cols(t.GroupBy)
		w.uint(uint64(len(t.Aggs)))
		for _, a := range t.Aggs {
			w.b = append(w.b, byte(a.Func))
			w.str(a.Table)
			w.str(a.Column)
		}
		return w.node(t.Input)
	case *plan.LimitNode:
		w.b = append(w.b, 5)
		w.b = binary.AppendVarint(w.b, int64(t.N))
		return w.node(t.Input)
	default:
		return false
	}
	return true
}
