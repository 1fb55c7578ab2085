// Package optimizer is the storage-aware cost-based query planner — the
// reproduction of the paper's "extended query optimizer" (§3.5). Unlike a
// stock planner it prices every I/O with the service time of the storage
// class that the candidate layout assigns to the touched object, so the
// cheapest plan (seq scan vs index scan, hash join vs indexed NLJ) changes
// as DOT moves objects between devices — the interaction at the heart of
// the paper.
//
// Estimates deliberately ignore the buffer pool (§3.5: "we do not analyze
// the effect of cached data") and the cost of emitting results.
package optimizer

import (
	"math"

	"dotprov/internal/catalog"
	"dotprov/internal/types"
)

// ColStats summarises one column for selectivity estimation.
type ColStats struct {
	NDV      float64 // number of distinct values (>= 1)
	Min, Max types.Value
	HasRange bool // Min/Max valid and numeric
}

// IndexInfo describes one index for access-path selection.
type IndexInfo struct {
	Name      string
	ID        catalog.ObjectID
	Column    string // leading column
	Columns   []string
	Unique    bool
	Height    float64
	LeafPages float64
	Entries   float64
}

// TableInfo carries the statistics the planner needs for one table.
type TableInfo struct {
	Name    string
	ID      catalog.ObjectID
	Rows    float64
	Pages   float64
	Cols    map[string]*ColStats
	Schema  *types.Schema
	Indexes []*IndexInfo
}

// Col returns the stats for a column, or a conservative default.
func (t *TableInfo) Col(name string) *ColStats {
	if s, ok := t.Cols[name]; ok && s.NDV >= 1 {
		return s
	}
	return &ColStats{NDV: defaultNDV(t.Rows)}
}

func defaultNDV(rows float64) float64 {
	if rows < 1 {
		return 1
	}
	if rows > 200 {
		return 200
	}
	return rows
}

// IndexOn returns the first index whose leading column is the given column,
// or nil.
func (t *TableInfo) IndexOn(column string) *IndexInfo {
	for _, ix := range t.Indexes {
		if ix.Column == column {
			return ix
		}
	}
	return nil
}

// Default selectivities when no range statistics are available, following
// the conventions of System R-style optimizers.
const (
	defaultEqSel      = 0.005
	defaultRangeSel   = 1.0 / 3.0
	defaultBetweenSel = 0.25
	minSelectivity    = 1e-9
)

func clampSel(s float64) float64 {
	if s < minSelectivity {
		return minSelectivity
	}
	if s > 1 {
		return 1
	}
	return s
}

// eqSelectivity estimates the fraction of rows matching col = v.
func (s *ColStats) eqSelectivity() float64 {
	if s.NDV >= 1 {
		return clampSel(1 / s.NDV)
	}
	return defaultEqSel
}

// rangeFraction returns the fraction of the [Min, Max] span covered by
// [lo, hi] (numeric columns only). An integer or date column holds whole
// values, so its range is a count of them, (⌊hi⌋ − ⌈lo⌉ + 1) / (max − min + 1):
// a one-value range matches one value, not a span of width zero. A float
// range is the continuous width (hi − lo) / (max − min).
func (s *ColStats) rangeFraction(lo, hi types.Value) float64 {
	if !s.HasRange || !s.Min.IsNumeric() {
		return -1
	}
	span := s.Max.AsFloat() - s.Min.AsFloat()
	if span <= 0 {
		return -1
	}
	l, h := lo.AsFloat(), hi.AsFloat()
	whole := s.Min.Kind != types.KindFloat
	if whole {
		l, h = math.Ceil(l), math.Floor(h)
	}
	l, h = max(l, s.Min.AsFloat()), min(h, s.Max.AsFloat())
	if h < l {
		return 0
	}
	if whole {
		return clampSel((h - l + 1) / (span + 1))
	}
	return clampSel((h - l) / span)
}
