// Package btree implements the B+-tree used for primary-key and secondary
// indexes. Keys are order-preserving byte strings (types.EncodeKey); values
// are heap-file RIDs; duplicate keys are allowed (entries are unique on
// (key, rid)).
//
// Nodes are in-memory structs, but each node is registered as one logical
// page of the owning index object: every node visited during a descent or a
// leaf-chain walk goes through the buffer pool and, on a miss, charges one
// random read to whatever storage class currently holds the index. This is
// how the simulator reproduces the paper's index-vs-device interaction
// (an index on an H-SSD makes indexed nested-loop joins attractive; the
// same index on an HDD does not).
//
// Deletion is lazy (no rebalancing), as in PostgreSQL: entries are removed
// from leaves but nodes are never merged.
//
// Memory: a node's arrays are allocated once, at the most the node holds —
// leafCap+1 entries for a leaf, order separators and order+1 children for
// an internal node, the overflow that splits it. A split allocates only
// its new right node (and a new root when the root splits); the left node
// keeps its arrays, and a split or a delete clears the slots it vacates, so
// no node holds a key or child past its length. Only the first leaf grows
// by appending, until it first splits. An inserted key is copied once and
// never written again: separators share those bytes, and Range's callback
// must not modify the key it is handed.
package btree

import (
	"bytes"
	"fmt"
	"slices"

	"dotprov/internal/bufferpool"
	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/pagestore"
)

// DefaultLeafCap and DefaultOrder size nodes so that a node is roughly one
// 8 KiB page of (key, RID) entries or separators.
const (
	DefaultLeafCap = 256
	DefaultOrder   = 256
)

type node struct {
	pageNo   uint32
	leaf     bool
	keys     [][]byte
	children []*node         // internal nodes
	rids     []pagestore.RID // leaves
	next     *node           // leaf chain
}

// Tree is a B+-tree index.
type Tree struct {
	obj      catalog.ObjectID
	root     *node
	leafCap  int
	order    int
	height   int
	numNodes int
	nextPage uint32
	entries  int64
}

// New creates an empty tree for the given catalog object with default node
// capacities.
func New(obj catalog.ObjectID) *Tree {
	return NewWithCaps(obj, DefaultLeafCap, DefaultOrder)
}

// NewWithCaps creates a tree with explicit node capacities (small caps make
// split logic easy to exercise in tests). leafCap and order are clamped to
// a minimum of 2 and 3 respectively.
func NewWithCaps(obj catalog.ObjectID, leafCap, order int) *Tree {
	if leafCap < 2 {
		leafCap = 2
	}
	if order < 3 {
		order = 3
	}
	t := &Tree{obj: obj, leafCap: leafCap, order: order, height: 1}
	t.root = t.newNode(true)
	return t
}

func (t *Tree) newNode(leaf bool) *node {
	n := &node{pageNo: t.nextPage, leaf: leaf}
	t.nextPage++
	t.numNodes++
	return n
}

// Object returns the owning catalog object.
func (t *Tree) Object() catalog.ObjectID { return t.obj }

// Len returns the number of entries.
func (t *Tree) Len() int64 { return t.entries }

// Height returns the tree height (1 for a lone leaf).
func (t *Tree) Height() int { return t.height }

// NumPages returns the number of node pages.
func (t *Tree) NumPages() int { return t.numNodes }

// SizeBytes returns the index size (whole pages).
func (t *Tree) SizeBytes() int64 { return int64(t.numNodes) * pagestore.PageSize }

// entryLess orders entries by (key, rid).
func entryLess(k1 []byte, r1 pagestore.RID, k2 []byte, r2 pagestore.RID) bool {
	if c := bytes.Compare(k1, k2); c != 0 {
		return c < 0
	}
	if r1.Page != r2.Page {
		return r1.Page < r2.Page
	}
	return r1.Slot < r2.Slot
}

// lowerBoundLeaf returns the first position in the leaf with keys[i] >= key.
func lowerBoundLeaf(n *node, key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child of an internal node covers key for
// insertion: equal separators send the key right, so fresh duplicates land
// after existing ones.
func childIndex(n *node, key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, n.keys[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// childIndexLeft returns the leftmost child that can contain key: equal
// separators send the search left, because entries equal to a separator may
// live in the left sibling after a split among duplicates.
func childIndexLeft(n *node, key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, n.keys[mid]) <= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// access charges a node visit through the buffer pool as one random read.
func (t *Tree) access(pool *bufferpool.Pool, ch iosim.Charger, n *node) {
	pool.Access(ch, t.obj, n.pageNo, device.RandRead)
}

// descend walks from the root to the insertion leaf for key, charging one
// page access per level.
func (t *Tree) descend(pool *bufferpool.Pool, ch iosim.Charger, key []byte) *node {
	n := t.root
	t.access(pool, ch, n)
	for !n.leaf {
		n = n.children[childIndex(n, key)]
		t.access(pool, ch, n)
	}
	return n
}

// descendLeft walks to the leftmost leaf that can contain key, so reads and
// deletes see duplicates that straddle leaf boundaries.
func (t *Tree) descendLeft(pool *bufferpool.Pool, ch iosim.Charger, key []byte) *node {
	n := t.root
	t.access(pool, ch, n)
	for !n.leaf {
		n = n.children[childIndexLeft(n, key)]
		t.access(pool, ch, n)
	}
	return n
}

// Insert adds an entry. The caller is responsible for charging the row
// write itself (per the paper, writes are charged per row on the object);
// node page touches during the descent go through the pool as reads.
func (t *Tree) Insert(pool *bufferpool.Pool, ch iosim.Charger, key []byte, rid pagestore.RID) {
	k := append([]byte(nil), key...)
	leaf := t.descend(pool, ch, k)
	pos := lowerBoundLeaf(leaf, k)
	// Among equal keys, keep (key, rid) order.
	for pos < len(leaf.keys) && bytes.Equal(leaf.keys[pos], k) &&
		entryLess(leaf.keys[pos], leaf.rids[pos], k, rid) {
		pos++
	}
	leaf.keys = append(leaf.keys, nil)
	copy(leaf.keys[pos+1:], leaf.keys[pos:])
	leaf.keys[pos] = k
	leaf.rids = append(leaf.rids, pagestore.RID{})
	copy(leaf.rids[pos+1:], leaf.rids[pos:])
	leaf.rids[pos] = rid
	t.entries++
	if len(leaf.keys) > t.leafCap {
		t.splitLeaf(leaf, k)
	}
}

// parentOf re-descends toward key to find the parent of child, a node on
// the insertion path of key whose ancestors the split has not touched yet.
// Splits are rare, so the extra walk keeps nodes parent-pointer-free.
func (t *Tree) parentOf(child *node, key []byte) *node {
	n := t.root
	for !n.leaf {
		next := n.children[childIndex(n, key)]
		if next == child {
			return n
		}
		n = next
	}
	panic("btree: split orphan (corrupt tree)")
}

// splitLeaf moves the upper half of an overfull leaf into a new right
// sibling. The right leaf is allocated at the most a leaf holds (leafCap+1
// entries, the overflow that splits it), and the left keeps its backing
// arrays with the vacated tail cleared, so neither reallocates as it fills
// again. The separator shares the right leaf's first key: keys are never
// written after Insert copies them.
func (t *Tree) splitLeaf(leaf *node, key []byte) {
	mid := len(leaf.keys) / 2
	right := t.newNode(true)
	right.keys = append(make([][]byte, 0, t.leafCap+1), leaf.keys[mid:]...)
	right.rids = append(make([]pagestore.RID, 0, t.leafCap+1), leaf.rids[mid:]...)
	clear(leaf.keys[mid:])
	leaf.keys = leaf.keys[:mid]
	leaf.rids = leaf.rids[:mid]
	right.next = leaf.next
	leaf.next = right
	t.insertIntoParent(leaf, right, right.keys[0], key)
}

// newInternal creates an internal node whose arrays hold the most an
// internal node holds: order+1 children and order separators, the overflow
// that splits it.
func (t *Tree) newInternal() *node {
	n := t.newNode(false)
	n.keys = make([][]byte, 0, t.order)
	n.children = make([]*node, 0, t.order+1)
	return n
}

func (t *Tree) insertIntoParent(left, right *node, sep, key []byte) {
	if left == t.root {
		newRoot := t.newInternal()
		newRoot.keys = append(newRoot.keys, sep)
		newRoot.children = append(newRoot.children, left, right)
		t.root = newRoot
		t.height++
		return
	}
	parent := t.parentOf(left, key)
	pos := 0
	for pos < len(parent.children) && parent.children[pos] != left {
		pos++
	}
	parent.keys = append(parent.keys, nil)
	copy(parent.keys[pos+1:], parent.keys[pos:])
	parent.keys[pos] = sep
	parent.children = append(parent.children, nil)
	copy(parent.children[pos+2:], parent.children[pos+1:])
	parent.children[pos+1] = right
	if len(parent.children) > t.order {
		t.splitInternal(parent, key)
	}
}

// splitInternal moves the upper half of an overfull internal node into a
// new right sibling at full capacity and pushes the middle separator up;
// the left keeps its arrays with the vacated tail cleared.
func (t *Tree) splitInternal(n *node, key []byte) {
	midKey := len(n.keys) / 2
	sep := n.keys[midKey]
	right := t.newInternal()
	right.keys = append(right.keys, n.keys[midKey+1:]...)
	right.children = append(right.children, n.children[midKey+1:]...)
	clear(n.keys[midKey:])
	clear(n.children[midKey+1:])
	n.keys = n.keys[:midKey]
	n.children = n.children[:midKey+1]
	t.insertIntoParent(n, right, sep, key)
}

// Range iterates, in key order, the entries whose key lies between the
// bounds lo and hi (inclusive as loIncl and hiIncl say; a nil lo starts at
// the smallest key, a nil hi runs to the end). Each bound is a key prefix:
// a key is compared with a bound on its first len(bound) bytes, so bounds
// that encode an index's leading columns select on those columns alone.
// That is exact because types.EncodeKey is self-delimiting. Iteration stops
// early when fn returns false; fn must not modify the key it is handed.
// Every leaf page visited charges one random read (on buffer miss).
func (t *Tree) Range(pool *bufferpool.Pool, ch iosim.Charger, lo, hi []byte, loIncl, hiIncl bool, fn func(key []byte, rid pagestore.RID) bool) {
	var leaf *node
	var pos int
	if lo == nil {
		leaf = t.leftmostLeaf(pool, ch)
	} else {
		leaf = t.descendLeft(pool, ch, lo)
		pos = lowerBoundLeaf(leaf, lo)
	}
	for leaf != nil {
		for ; pos < len(leaf.keys); pos++ {
			k := leaf.keys[pos]
			if !loIncl && lo != nil && bytes.HasPrefix(k, lo) {
				continue
			}
			if hi != nil {
				c := bytes.Compare(k[:min(len(k), len(hi))], hi)
				if c > 0 || (c == 0 && !hiIncl) {
					return
				}
			}
			if !fn(k, leaf.rids[pos]) {
				return
			}
		}
		leaf = leaf.next
		if leaf != nil {
			t.access(pool, ch, leaf)
			pos = 0
		}
	}
}

func (t *Tree) leftmostLeaf(pool *bufferpool.Pool, ch iosim.Charger) *node {
	n := t.root
	t.access(pool, ch, n)
	for !n.leaf {
		n = n.children[0]
		t.access(pool, ch, n)
	}
	return n
}

// Delete removes the entry (key, rid). It reports whether an entry was
// removed. The caller charges the row write.
func (t *Tree) Delete(pool *bufferpool.Pool, ch iosim.Charger, key []byte, rid pagestore.RID) bool {
	leaf := t.descendLeft(pool, ch, key)
	for leaf != nil {
		pos := lowerBoundLeaf(leaf, key)
		for ; pos < len(leaf.keys) && bytes.Equal(leaf.keys[pos], key); pos++ {
			if leaf.rids[pos] == rid {
				leaf.keys = slices.Delete(leaf.keys, pos, pos+1) // clears the vacated slot
				leaf.rids = slices.Delete(leaf.rids, pos, pos+1)
				t.entries--
				return true
			}
		}
		if pos < len(leaf.keys) {
			return false // moved past key
		}
		leaf = leaf.next // duplicates may spill into the next leaf
		if leaf != nil {
			t.access(pool, ch, leaf)
		}
	}
	return false
}

// LeafPages estimates the number of leaf pages, used by the optimizer's
// index scan cost model.
func (t *Tree) LeafPages() int {
	if t.entries == 0 {
		return 1
	}
	pages := int(t.entries) / t.leafCap
	if int(t.entries)%t.leafCap != 0 {
		pages++
	}
	return pages
}

// Validate checks the structural invariants (sorted keys, separator
// consistency, uniform leaf depth, leaf chain completeness). It is used by
// tests and returns a descriptive error on the first violation.
func (t *Tree) Validate() error {
	depth := -1
	var walk func(n *node, d int, lo, hi []byte) error
	var count int64
	walk = func(n *node, d int, lo, hi []byte) error {
		for i := 1; i < len(n.keys); i++ {
			if bytes.Compare(n.keys[i-1], n.keys[i]) > 0 {
				return fmt.Errorf("btree: node %d keys unsorted", n.pageNo)
			}
		}
		for _, k := range n.keys {
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("btree: node %d key below lower bound", n.pageNo)
			}
			if hi != nil && bytes.Compare(k, hi) > 0 {
				return fmt.Errorf("btree: node %d key above upper bound", n.pageNo)
			}
		}
		if n.leaf {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("btree: uneven leaf depth (%d vs %d)", depth, d)
			}
			if len(n.keys) != len(n.rids) {
				return fmt.Errorf("btree: leaf %d keys/rids mismatch", n.pageNo)
			}
			count += int64(len(n.keys))
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: internal %d has %d children for %d keys", n.pageNo, len(n.children), len(n.keys))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if err := walk(c, d+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if count != t.entries {
		return fmt.Errorf("btree: entry count %d, tree says %d", count, t.entries)
	}
	if depth != t.height && t.entries > 0 {
		return fmt.Errorf("btree: height %d, observed depth %d", t.height, depth)
	}
	return nil
}
