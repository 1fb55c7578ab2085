package catalog

import "fmt"

// This file generalizes the unit of placement from whole objects to
// heat-based partitions. The paper's layout function L: O -> D places whole
// objects, so one hot page range drags an entire table onto expensive
// storage; under skewed access a sub-object placement buys the same SLA at
// strictly lower cost. A Partitioning splits each object into contiguous
// page-range extents (PlacementUnits) driven by per-extent access
// statistics, and derives a unit catalog — a *Catalog whose objects ARE the
// units — so every downstream layer (Layout, CompactLayout, the compiled
// cost model, the search engine, provisioning sweeps, online re-advising)
// runs unchanged at unit granularity.

// UnitID identifies a placement unit. Units live in their own dense ID
// space — the object space of the derived unit catalog — so UnitID is an
// ObjectID there, and every dense-table mechanism (DenseIndex,
// CompactLayout, CompiledProfile) applies verbatim.
type UnitID = ObjectID

// PlacementUnit is the generalized unit of placement: a contiguous
// page-range extent of one object. An unpartitioned object is a single unit
// spanning the whole object (and keeps the object's name, so rendered
// layouts are byte-identical to the object-granular ones).
type PlacementUnit struct {
	// ID is the unit's object ID in the unit catalog.
	ID UnitID
	// Object is the parent object in the base catalog.
	Object ObjectID
	// Name is the unit's name in the unit catalog: the parent's name for a
	// whole-object unit, "<parent>[<start>:<end>)" (page range) otherwise.
	Name string
	// StartPage and EndPage bound the extent: pages [StartPage, EndPage).
	StartPage, EndPage int64
	// SizeBytes is the unit's exact share of the parent's size. Unit sizes
	// partition the parent's SizeBytes exactly (the last unit absorbs the
	// final partial page), so per-class byte totals — and therefore storage
	// costs — of an expanded layout are bit-identical to the object form's.
	SizeBytes int64
	// Heat is the fraction of the parent's observed accesses landing in
	// this extent (heats of a parent's units sum to 1; a zero-traffic
	// parent falls back to size-proportional heat).
	Heat float64
}

// Pages returns the unit's extent length in pages.
func (u PlacementUnit) Pages() int64 { return u.EndPage - u.StartPage }

// Extent is one observed slice of an object: a run of whole pages with the
// access count that landed in it. Producers with finer knowledge (the
// online collector's page tap) emit fixed-width runs; wire clients declare
// arbitrary runs.
type Extent struct {
	// Pages is the run length in pages (> 0).
	Pages int64
	// Count is the number of accesses observed in the run. Counts are
	// relative weights: only their ratios matter.
	Count float64
}

// ExtentStats carries per-object access histograms over contiguous page
// runs — the per-extent statistics BuildPartitioning splits and merges on.
type ExtentStats struct {
	// PageBytes is the page size the extents are expressed in (0 selects
	// DefaultPageBytes).
	PageBytes int64
	// ByObject lists each object's extents in page order, starting at page
	// 0. Objects absent from the map are treated as one cold extent
	// spanning the whole object.
	ByObject map[ObjectID][]Extent
}

// DefaultPageBytes is the page size assumed when ExtentStats does not
// declare one (the engine's pagestore page size).
const DefaultPageBytes = 8192

// PartitionOptions tunes BuildPartitioning. Zero values select the
// documented defaults.
type PartitionOptions struct {
	// MaxUnitsPerObject caps how many units one object may split into
	// (default 8). Search cost grows with the unit count, so the cap trades
	// placement resolution for planning time.
	MaxUnitsPerObject int
	// MinUnitBytes is the smallest unit worth placing independently
	// (default 1 MiB); smaller fragments merge into a neighbour.
	MinUnitBytes int64
	// MergeRatio is the heat-density ratio under which adjacent extents
	// merge (default 4): two neighbours whose accesses-per-page densities
	// are within this factor of each other are not worth splitting.
	MergeRatio float64
}

func (o PartitionOptions) withDefaults() PartitionOptions {
	if o.MaxUnitsPerObject < 1 {
		o.MaxUnitsPerObject = 8
	}
	if o.MinUnitBytes <= 0 {
		o.MinUnitBytes = 1 << 20
	}
	if o.MergeRatio < 1 {
		o.MergeRatio = 4
	}
	return o
}

// Partitioning maps a base catalog onto its unit-granular sibling: every
// object is split into one or more PlacementUnits, and the units form the
// object set of a derived unit catalog. A Partitioning is immutable after
// construction and safe for concurrent use.
type Partitioning struct {
	base  *Catalog
	ucat  *Catalog
	units []PlacementUnit       // indexed by DenseIndex(unit ID)
	byObj map[ObjectID][]UnitID // parent -> unit IDs in page order
}

// IdentityPartitioning derives the trivial partitioning: one unit per
// object, spanning it whole. The unit catalog then mirrors the base
// catalog object for object (same dense IDs, names, kinds and sizes), so
// unpartitioned databases behave byte-identically at unit granularity.
func IdentityPartitioning(c *Catalog) *Partitioning {
	pt, err := BuildPartitioning(c, ExtentStats{}, PartitionOptions{})
	if err != nil {
		// Unreachable: identity construction has no failing inputs.
		panic(fmt.Sprintf("catalog: IdentityPartitioning: %v", err))
	}
	return pt
}

// BuildPartitioning splits the catalog's objects into heat-based units.
// Each object's extents are segmented by access density — adjacent extents
// with similar heat merge, dissimilar ones stay split — then clamped to
// the options' unit floor and cap. Objects without statistics (and all
// auxiliary temp/log objects' missing pages) become single cold units.
// The construction is deterministic: equal inputs yield equal unit
// catalogs.
func BuildPartitioning(c *Catalog, stats ExtentStats, opts PartitionOptions) (*Partitioning, error) {
	opts = opts.withDefaults()
	pageBytes := stats.PageBytes
	if pageBytes <= 0 {
		pageBytes = DefaultPageBytes
	}
	pt := &Partitioning{
		base:  c,
		ucat:  New(),
		byObj: make(map[ObjectID][]UnitID),
	}
	for _, o := range c.Objects() {
		segs := segmentObject(o, stats.ByObject[o.ID], pageBytes, opts)
		for _, sg := range segs {
			name := o.Name
			if len(segs) > 1 {
				name = fmt.Sprintf("%s[%d:%d)", o.Name, sg.startPage, sg.endPage)
			}
			uo, err := pt.ucat.CreateStandalone(name, o.Kind, sg.sizeBytes)
			if err != nil {
				return nil, fmt.Errorf("catalog: partitioning %q: %w", o.Name, err)
			}
			pt.units = append(pt.units, PlacementUnit{
				ID:        uo.ID,
				Object:    o.ID,
				Name:      name,
				StartPage: sg.startPage,
				EndPage:   sg.endPage,
				SizeBytes: sg.sizeBytes,
				Heat:      sg.heat,
			})
			pt.byObj[o.ID] = append(pt.byObj[o.ID], uo.ID)
		}
	}
	return pt, nil
}

// segment is one unit under construction.
type segment struct {
	startPage, endPage int64
	sizeBytes          int64
	count              float64
	heat               float64
}

func (s segment) pages() int64 { return s.endPage - s.startPage }

// density is the segment's accesses per page (its merge criterion).
func (s segment) density() float64 {
	if p := s.pages(); p > 0 {
		return s.count / float64(p)
	}
	return 0
}

// segmentObject splits one object by its extent histogram. The returned
// segments cover pages [0, ceil(size/pageBytes)) contiguously and their
// sizes sum to the object's SizeBytes exactly.
func segmentObject(o *Object, exts []Extent, pageBytes int64, opts PartitionOptions) []segment {
	objPages := (o.SizeBytes + pageBytes - 1) / pageBytes
	whole := []segment{{startPage: 0, endPage: objPages, sizeBytes: o.SizeBytes, heat: 1}}
	if objPages <= 1 || len(exts) == 0 {
		return whole
	}
	// Lay the declared extents over the object's page range, clamping at
	// the end and padding any uncovered tail with a cold extent. Counts
	// recorded past the cataloged size (a table that grew after its size
	// was last set — live captures see appends) fold into the final
	// segment rather than vanish: heat must be conserved, and the overflow
	// is genuinely the tail's traffic.
	var segs []segment
	var page int64
	for _, e := range exts {
		if e.Pages <= 0 {
			continue
		}
		if page >= objPages {
			if len(segs) > 0 {
				segs[len(segs)-1].count += e.Count
			}
			continue
		}
		end := page + e.Pages
		if end > objPages {
			end = objPages
		}
		segs = append(segs, segment{startPage: page, endPage: end, count: e.Count})
		page = end
	}
	if page < objPages {
		segs = append(segs, segment{startPage: page, endPage: objPages})
	}
	// Merge adjacent segments whose densities are within MergeRatio of each
	// other (both-cold pairs always merge); a single pass left to right is
	// enough because density of a merged run stays between its parts'.
	segs = mergeSimilar(segs, opts.MergeRatio)
	// Enforce the unit floor: fragments below MinUnitBytes merge into their
	// left neighbour (the first one into its right).
	minPages := (opts.MinUnitBytes + pageBytes - 1) / pageBytes
	segs = mergeSmall(segs, minPages)
	// Enforce the unit cap: repeatedly merge the most similar adjacent pair.
	for len(segs) > opts.MaxUnitsPerObject {
		segs = mergeClosest(segs)
	}
	// Stamp exact sizes and heats.
	var total float64
	for _, s := range segs {
		total += s.count
	}
	for i := range segs {
		segs[i].sizeBytes = segs[i].pages() * pageBytes
		if segs[i].endPage == objPages {
			segs[i].sizeBytes = o.SizeBytes - segs[i].startPage*pageBytes
		}
		if total > 0 {
			segs[i].heat = segs[i].count / total
		} else if o.SizeBytes > 0 {
			segs[i].heat = float64(segs[i].sizeBytes) / float64(o.SizeBytes)
		} else {
			segs[i].heat = 1 / float64(len(segs))
		}
	}
	return segs
}

// mergeSimilar coalesces adjacent segments whose densities are within
// ratio of each other.
func mergeSimilar(segs []segment, ratio float64) []segment {
	out := segs[:0]
	for _, s := range segs {
		if len(out) > 0 && similar(out[len(out)-1].density(), s.density(), ratio) {
			out[len(out)-1] = merge(out[len(out)-1], s)
			continue
		}
		out = append(out, s)
	}
	return out
}

// mergeSmall folds segments shorter than minPages into a neighbour.
func mergeSmall(segs []segment, minPages int64) []segment {
	for len(segs) > 1 {
		i := -1
		for j := range segs {
			if segs[j].pages() < minPages {
				i = j
				break
			}
		}
		if i < 0 {
			break
		}
		if i == 0 {
			segs[1] = merge(segs[0], segs[1])
			segs = segs[1:]
		} else {
			segs[i-1] = merge(segs[i-1], segs[i])
			segs = append(segs[:i], segs[i+1:]...)
		}
	}
	return segs
}

// mergeClosest merges the adjacent pair with the most similar densities
// (ties resolve to the lowest index, keeping the construction
// deterministic).
func mergeClosest(segs []segment) []segment {
	best, bestGap := 0, -1.0
	for i := 0; i+1 < len(segs); i++ {
		gap := densityGap(segs[i].density(), segs[i+1].density())
		if bestGap < 0 || gap < bestGap {
			best, bestGap = i, gap
		}
	}
	segs[best] = merge(segs[best], segs[best+1])
	return append(segs[:best+1], segs[best+2:]...)
}

// similar reports whether two densities are within ratio of each other.
// Two cold runs are always similar; a cold run next to a hot one never is.
func similar(a, b, ratio float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	if a == 0 || b == 0 {
		return false
	}
	if a < b {
		a, b = b, a
	}
	return a/b <= ratio
}

// densityGap orders pairs for mergeClosest: the ratio of the denser to the
// sparser run (cold pairs gap 0, cold-vs-hot pairs gap +Inf-ish).
func densityGap(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	if a == 0 || b == 0 {
		return 1e308
	}
	if a < b {
		a, b = b, a
	}
	return a / b
}

func merge(a, b segment) segment {
	return segment{
		startPage: a.startPage,
		endPage:   b.endPage,
		count:     a.count + b.count,
	}
}

// Base returns the catalog the partitioning was built from.
func (pt *Partitioning) Base() *Catalog { return pt.base }

// UnitCatalog returns the derived catalog whose objects are the placement
// units. Layouts, compact layouts, compiled profiles and searches over this
// catalog are unit-granular by construction.
func (pt *Partitioning) UnitCatalog() *Catalog { return pt.ucat }

// Units returns all placement units, indexed by DenseIndex(unit ID). The
// slice is shared and must be treated as read-only.
func (pt *Partitioning) Units() []PlacementUnit { return pt.units }

// NumUnits returns the total number of placement units.
func (pt *Partitioning) NumUnits() int { return len(pt.units) }

// Unit returns the placement unit with the given ID, or a zero unit.
func (pt *Partitioning) Unit(id UnitID) PlacementUnit {
	if i := DenseIndex(id); i >= 0 && i < len(pt.units) {
		return pt.units[i]
	}
	return PlacementUnit{}
}

// UnitsOf returns the unit IDs of a base object in page order. The slice
// is shared and must be treated as read-only.
func (pt *Partitioning) UnitsOf(obj ObjectID) []UnitID { return pt.byObj[obj] }

// Partitioned reports whether any object split into more than one unit.
func (pt *Partitioning) Partitioned() bool {
	return len(pt.units) != pt.base.NumObjects()
}

// ExpandLayout lifts an object-granular layout to unit granularity: every
// unit inherits its parent's class. Objects absent from the layout leave
// their units unplaced, so partial layouts round-trip.
func (pt *Partitioning) ExpandLayout(l Layout) Layout { return expandLayout(pt, l) }

// ExpandSetLayout is ExpandLayout over class sets: every unit inherits its
// parent's set of copies.
func (pt *Partitioning) ExpandSetLayout(l SetLayout) SetLayout { return expandLayout(pt, l) }

func expandLayout[M ~map[ObjectID]V, V ~uint8](pt *Partitioning, l M) M {
	out := make(M, len(pt.units))
	for obj, v := range l {
		for _, u := range pt.byObj[obj] {
			out[u] = v
		}
	}
	return out
}

// CollapseLayout lowers a unit-granular layout back to object granularity.
// It reports ok=false when some object's units disagree on their class (the
// layout is genuinely sub-object and has no lossless object form) or a unit
// is missing while its siblings are placed.
func (pt *Partitioning) CollapseLayout(ul Layout) (Layout, bool) {
	out := make(Layout, pt.base.NumObjects())
	for _, o := range pt.base.Objects() {
		us := pt.byObj[o.ID]
		if len(us) == 0 {
			continue
		}
		cls, placed := ul[us[0]]
		for _, u := range us[1:] {
			c, ok := ul[u]
			if ok != placed || (ok && c != cls) {
				return nil, false
			}
		}
		if placed {
			out[o.ID] = cls
		}
	}
	return out, true
}

// SplitObjects counts the objects a unit-granular layout splits across
// storage classes: those whose units do not all sit on one class.
func (pt *Partitioning) SplitObjects(ul Layout) int {
	split := 0
	for _, o := range pt.base.Objects() {
		us := pt.byObj[o.ID]
		for _, u := range us {
			if ul[u] != ul[us[0]] {
				split++
				break
			}
		}
	}
	return split
}
