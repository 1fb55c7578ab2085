package fleet

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Memo is a fingerprint-keyed, single-flight result cache: the fleet-wide
// advise memo, and the cache /v1/provision answers repeated sweeps from.
// Tenants whose defining workloads share a fingerprint key hit
// the same cached search result, and concurrent misses on one key coalesce
// into a single search — the loser goroutines block until the winner's
// compute returns and then share its value. Completed values are retained
// in an LRU bounded at max entries; errors are never cached (a failed
// search must not poison every later tenant with the same workload).
//
// A Memo is safe for concurrent use.
type Memo struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight
	hits     atomic.Int64
	misses   atomic.Int64
}

// memoEntry is one completed value in the LRU.
type memoEntry struct {
	key string
	val any
}

// flight is one in-progress compute; done closes when val/err are set.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewMemo builds a memo retaining up to max completed entries (max < 1
// selects 1).
func NewMemo(max int) *Memo {
	if max < 1 {
		max = 1
	}
	return &Memo{
		max:      max,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Do returns the memoized value for key, computing it with fn on a miss.
// hit reports whether the caller avoided running fn itself — a cached
// value, or a coalesced wait on a concurrent caller's compute. Exactly one
// caller runs fn per key at a time; its result is cached only on success.
func (m *Memo) Do(key string, fn func() (any, error)) (v any, hit bool, err error) {
	for {
		m.mu.Lock()
		if v, ok := m.getLocked(key); ok {
			m.mu.Unlock()
			return v, true, nil
		}
		if f, ok := m.inflight[key]; ok {
			m.mu.Unlock()
			<-f.done
			if f.err != nil {
				// The winner failed. Its error is not authoritative for this
				// caller (transient failures must stay retryable), so loop and
				// contend for the flight ourselves.
				continue
			}
			m.hits.Add(1)
			return f.val, true, nil
		}
		f := &flight{done: make(chan struct{})}
		m.inflight[key] = f
		m.mu.Unlock()
		m.misses.Add(1)
		f.val, f.err = fn()
		m.mu.Lock()
		delete(m.inflight, key)
		if f.err == nil {
			// The key cannot be present: its one flight is the only writer,
			// and a flight starts only on a miss.
			m.items[key] = m.ll.PushFront(&memoEntry{key: key, val: f.val})
			for m.ll.Len() > m.max {
				oldest := m.ll.Back()
				m.ll.Remove(oldest)
				delete(m.items, oldest.Value.(*memoEntry).key)
			}
		}
		m.mu.Unlock()
		close(f.done)
		return f.val, false, f.err
	}
}

// Get returns the completed value cached for key, never computing and never
// waiting on another caller's compute — the probe for a caller that must
// not start a search. A value found counts as a hit and becomes the most
// recently used.
func (m *Memo) Get(key string) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.getLocked(key)
}

// getLocked is the cached-value lookup Do and Get share. Callers hold m.mu.
func (m *Memo) getLocked(key string) (any, bool) {
	el, ok := m.items[key]
	if !ok {
		return nil, false
	}
	m.ll.MoveToFront(el)
	m.hits.Add(1)
	return el.Value.(*memoEntry).val, true
}

// Hits returns how many lookups were answered without running a compute:
// cached values (from Do or Get) plus Do's coalesced waits.
func (m *Memo) Hits() int64 { return m.hits.Load() }

// Misses returns how many Do calls ran their fn.
func (m *Memo) Misses() int64 { return m.misses.Load() }

// Len returns the number of completed entries retained.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}
