package btree

import (
	"fmt"
	"math/rand"
	"testing"

	"dotprov/internal/bufferpool"
)

// checkTails fails the test if any node keeps a key or a child in its
// backing array past its length: a split or a delete that leaves one there
// keeps it reachable for the garbage collector.
func checkTails(t *testing.T, tr *Tree, when string) {
	t.Helper()
	var walk func(n *node)
	walk = func(n *node) {
		for i, k := range n.keys[len(n.keys):cap(n.keys)] {
			if k != nil {
				t.Fatalf("%s: node %d holds key %x at %d, past its length %d", when, n.pageNo, k, len(n.keys)+i, len(n.keys))
			}
		}
		for i, c := range n.children[len(n.children):cap(n.children)] {
			if c != nil {
				t.Fatalf("%s: node %d holds child %d at %d, past its length %d", when, n.pageNo, c.pageNo, len(n.children)+i, len(n.children))
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
}

// TestNodesHoldNothingPastTheirLength checks every node after every split
// and after every delete.
func TestNodesHoldNothingPastTheirLength(t *testing.T) {
	tr := NewWithCaps(1, 4, 4)
	pool := bufferpool.New(64)
	ch := bufferpool.NopCharger{}
	r := rand.New(rand.NewSource(3))
	perm := r.Perm(600)
	for _, v := range perm {
		pages := tr.NumPages()
		tr.Insert(pool, ch, intKey(int64(v)), rid(v))
		if tr.NumPages() != pages {
			checkTails(t, tr, fmt.Sprintf("split inserting %d", v))
		}
	}
	if tr.Height() < 4 {
		t.Fatalf("height = %d; small caps should force internal splits", tr.Height())
	}
	for _, v := range perm[:400] {
		if !tr.Delete(pool, ch, intKey(int64(v)), rid(v)) {
			t.Fatalf("Delete(%d) reported not found", v)
		}
		checkTails(t, tr, fmt.Sprintf("deleting %d", v))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitsAllocateOneNodeEach holds the node-capacity rule: once a tree
// is past its first split, an insert allocates its key copy and nothing
// else, and a split allocates one node (its struct and two arrays) and
// nothing else. Ascending keys always fill the newest right sibling, so
// they show a right node allocated short of its capacity; descending keys
// always fill the leftmost nodes, so they show a left node whose arrays
// were cut to its length.
func TestSplitsAllocateOneNodeEach(t *testing.T) {
	const n = 2000
	const perSplit = 3 // the node struct, its keys and its rids or children
	for _, dir := range []struct {
		name string
		key  func(i int) int64
	}{
		{"ascending", func(i int) int64 { return int64(i) }},
		{"descending", func(i int) int64 { return int64(-i) }},
	} {
		t.Run(dir.name, func(t *testing.T) {
			tr := NewWithCaps(1, 16, 16)
			// A one-page pool: every node access evicts the one page the
			// pool holds, so the pool's storage never grows.
			pool := bufferpool.New(1)
			ch := bufferpool.NopCharger{}
			// Three batches: the warm-up below, then AllocsPerRun's own
			// warm-up and its measured run.
			keys := make([][]byte, 3*n)
			for i := range keys {
				keys[i] = intKey(dir.key(i))
			}
			next := 0
			insert := func() {
				for i := 0; i < n; i++ {
					tr.Insert(pool, ch, keys[next], rid(next))
					next++
				}
			}
			insert() // past the first split, at every level
			var pages int
			allocs := testing.AllocsPerRun(1, func() {
				pages = tr.NumPages()
				insert()
				pages = tr.NumPages() - pages
			})
			if pages == 0 {
				t.Fatal("no split while measuring")
			}
			if want := float64(n + perSplit*pages); allocs > want {
				t.Fatalf("%d inserts with %d splits allocated %.0f times, want at most %.0f (one key copy per insert, %d per split)",
					n, pages, allocs, want, perSplit)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
