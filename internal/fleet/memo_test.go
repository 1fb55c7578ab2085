package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoSingleFlight: concurrent misses on one key coalesce into exactly
// one compute; everyone shares its value, and only the winner counts as a
// miss.
func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo(8)
	const callers = 32
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, _, err := m.Do("sweep", func() (any, error) {
				computes.Add(1)
				return "layout", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			vals[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1 (single-flight)", got)
	}
	for i, v := range vals {
		if v != "layout" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	if m.Misses() != 1 || m.Hits() != callers-1 {
		t.Fatalf("hits=%d misses=%d, want %d and 1", m.Hits(), m.Misses(), callers-1)
	}
}

// TestMemoErrorNotCached: a failed compute is returned to its caller but
// never cached — the next Do retries.
func TestMemoErrorNotCached(t *testing.T) {
	m := NewMemo(8)
	boom := errors.New("search failed")
	if _, hit, err := m.Do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) || hit {
		t.Fatalf("first Do: hit=%v err=%v", hit, err)
	}
	v, hit, err := m.Do("k", func() (any, error) { return 42, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("retry Do: v=%v hit=%v err=%v", v, hit, err)
	}
	if v, hit, _ := m.Do("k", nil); !hit || v != 42 {
		t.Fatalf("cached Do: v=%v hit=%v", v, hit)
	}
}

// TestMemoLRUBound: the completed-entry count never exceeds max, and the
// least recently used key is the one evicted.
func TestMemoLRUBound(t *testing.T) {
	m := NewMemo(2)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := m.Do(key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", m.Len())
	}
	// k0 was evicted; k2 and k1 remain.
	ran := false
	if _, hit, _ := m.Do("k0", func() (any, error) { ran = true; return 0, nil }); hit || !ran {
		t.Fatalf("k0 still cached after eviction (hit=%v ran=%v)", hit, ran)
	}
	if _, hit, _ := m.Do("k2", nil); !hit {
		t.Fatal("k2 evicted, want retained")
	}

	// Recency, not insertion order, picks the victim: a probed entry
	// outlives a newer one that was not. Get neither computes nor counts a
	// miss, and a found value is a hit.
	r := NewMemo(2)
	put := func(key string, v int) {
		t.Helper()
		if _, _, err := r.Do(key, func() (any, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 1)
	put("b", 2)
	if v, ok := r.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v %v, want the cached 1", v, ok)
	}
	put("c", 3) // evicts b: a was just used
	if _, ok := r.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := r.Get(k); !ok {
			t.Fatalf("%s should be cached", k)
		}
	}
	if r.Len() != 2 || r.Hits() != 3 || r.Misses() != 3 {
		t.Fatalf("len=%d hits=%d misses=%d, want 2, 3 and 3", r.Len(), r.Hits(), r.Misses())
	}
}
