package search

import (
	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/workload"
)

// slotHash mixes one (slot, placement byte) pair into 64 bits: the
// splitmix64 finaliser over the pair packed into one word. The unset
// sentinel is a byte like any other.
func slotHash(i int, b byte) uint64 {
	z := (uint64(i)<<8 | uint64(b)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// layoutHash is the compact memo's hash: the XOR of every slot's slotHash.
// XOR makes it position-keyed and order-free, so changing slot i from a to b
// updates it with slotHash(i, a) ^ slotHash(i, b) — a Cursor never rehashes
// the layout. The memo resolves a chain by comparing bytes, so a collision
// costs a comparison, never a wrong answer.
func layoutHash(b []byte) uint64 {
	var h uint64
	for i, c := range b {
		h ^= slotHash(i, c)
	}
	return h
}

// Cursor is a running layout on an engine and the engine's delta API: Try
// evaluates the running layout with a few units moved, and the caller then
// either Commits that evaluation as the new running layout or Reverts the
// moves. Every DOT, refinement and incremental sweep walks one. Beside the
// scratch layout and its evaluation the cursor carries the layout's memo
// hash and per-class totals, and derives a candidate's from them, so every
// stage of a candidate — memo hash, estimate (the estimator's EstimateDelta
// from the running metrics), totals, price — costs O(moves). What still
// touches every slot is the memo's key comparison on a hit and its key copy
// on a miss.
//
// A Cursor is not safe for concurrent use; concurrent sweeps over one
// engine each take their own.
type Cursor struct {
	e       *Engine
	cur     Eval
	scratch catalog.CompactLayout
	// hash and space describe scratch as of cur; cand* describe it with the
	// moves of the last Try applied, and moves is what Try hands the
	// estimator's EstimateDelta (nil: EstimateCompact, in full).
	hash      uint64
	space     catalog.ClassSpace
	candHash  uint64
	candSpace catalog.ClassSpace
	moves     []workload.ObjectMove
}

// NewCursor starts a cursor at an evaluated layout, on a private copy of
// it.
func (e *Engine) NewCursor(ev Eval) *Cursor {
	c := &Cursor{e: e, scratch: ev.Compact.Clone()}
	c.walk()
	c.Commit(ev)
	return c
}

// walk makes the scratch layout the candidate with its hash and totals
// computed in full, to be estimated in full.
func (c *Cursor) walk() {
	c.candHash, c.candSpace, c.moves = layoutHash(c.scratch.Bytes()), c.scratch.Space(c.e.sizes), nil
}

// Eval is the running layout's evaluation.
func (c *Cursor) Eval() Eval { return c.cur }

// At returns a unit's placement in the running layout and whether it is
// placed.
func (c *Cursor) At(id catalog.ObjectID) (device.ClassSet, bool) { return c.scratch.Get(id) }

// Try applies the changes to the running layout and evaluates the result.
// The slice is only read until the Commit or Revert that follows, so
// callers may reuse it.
func (c *Cursor) Try(changes []workload.ObjectMove) (Eval, error) {
	b := c.scratch.Bytes()
	c.candHash, c.candSpace = c.hash, c.space
	deltaable := len(changes) > 0
	for _, ch := range changes {
		// An empty From is a unit the running layout does not place. Sweeps
		// start from total layouts, so this is unreachable; degrade to a full
		// estimate rather than delta from an unknown placement. Hash and
		// totals go by the byte actually stored, so they hold regardless.
		deltaable = deltaable && ch.From != 0
		i := catalog.DenseIndex(ch.Obj)
		old := b[i]
		c.scratch.Set(ch.Obj, ch.To)
		c.candHash ^= slotHash(i, old) ^ slotHash(i, byte(ch.To))
		var size int64
		if i < len(c.e.sizes) {
			size = c.e.sizes[i]
		}
		c.candSpace.Move(size, device.ClassSet(old), ch.To)
	}
	c.moves = nil
	if deltaable {
		c.moves = changes
	}
	return c.e.evaluateCompact(c.scratch, c.candHash, c)
}

// Commit makes the layout Try just evaluated the running layout.
func (c *Cursor) Commit(ev Eval) {
	c.cur, c.hash, c.space = ev, c.candHash, c.candSpace
}

// Revert undoes the changes Try just applied.
func (c *Cursor) Revert(changes []workload.ObjectMove) {
	for _, ch := range changes {
		if ch.From == 0 {
			c.scratch.Unset(ch.Obj)
		} else {
			c.scratch.Set(ch.Obj, ch.From)
		}
	}
}

// reseat evaluates the scratch layout in full — hash, totals and estimate
// from scratch — and makes it the running layout: for an owner that changed
// scratch behind the cursor (the branch-and-bound walk moves its upper
// levels directly and chains only the innermost siblings through Try).
func (c *Cursor) reseat() (Eval, error) {
	c.walk()
	ev, err := c.e.evaluateCompact(c.scratch, c.candHash, c)
	if err == nil {
		c.Commit(ev)
	}
	return ev, err
}
