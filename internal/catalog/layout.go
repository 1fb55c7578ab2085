package catalog

import (
	"fmt"
	"sort"
	"strings"

	"dotprov/internal/device"
)

// Layout is a data layout L: O -> D mapping every object to a storage class
// (paper §2.2). It is the single-copy public map form — what the execution
// engine applies and the planner prices; the search itself
// places class sets (SetLayout) and treats a Layout as its all-singleton
// case, converting at the API edge with SingletonSetLayout / SingleLayout.
type Layout map[ObjectID]device.Class

// SetLayout is a data layout L: O -> 2^D mapping every object (or placement
// unit) to the non-empty set of storage classes holding a copy: reads route
// to the best member per access pattern, writes land on every member, and
// every member is charged the object's full size. It is the search's
// placement value; its dense form is CompactLayout.
type SetLayout map[ObjectID]device.ClassSet

// cloneLayout, equalLayouts, layoutKey and expandLayout (partition.go) are
// the map operations the two public forms share; their value types are
// both one placement byte.
func cloneLayout[M ~map[ObjectID]V, V ~uint8](l M) M {
	out := make(M, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

func equalLayouts[M ~map[ObjectID]V, V ~uint8](l, o M) bool {
	if len(l) != len(o) {
		return false
	}
	for k, v := range l {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

func layoutKey[M ~map[ObjectID]V, V ~uint8](l M) string {
	ids := make([]ObjectID, 0, len(l))
	for id := range l {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b := make([]byte, 0, 5*len(ids))
	for _, id := range ids {
		b = append(b, byte(id>>24), byte(id>>16), byte(id>>8), byte(id), byte(l[id]))
	}
	return string(b)
}

// NewUniformLayout places every catalog object on a single class. With the
// most expensive class this is the paper's starting layout L0.
func NewUniformLayout(c *Catalog, class device.Class) Layout {
	l := make(Layout, len(c.objects))
	for id := range c.objects {
		l[id] = class
	}
	return l
}

// NewSplitLayout places all tables (and aux objects) on dataClass and all
// indexes on indexClass — the paper's baseline layouts L(i,j) (§3.4) and the
// "Index H-SSD Data L-SSD" simple layout (§4.2).
func NewSplitLayout(c *Catalog, dataClass, indexClass device.Class) Layout {
	l := make(Layout, len(c.objects))
	for id, o := range c.objects {
		if o.Kind == KindIndex {
			l[id] = indexClass
		} else {
			l[id] = dataClass
		}
	}
	return l
}

// Clone returns a copy of the layout.
func (l Layout) Clone() Layout { return cloneLayout(l) }

// Key returns a canonical byte-string encoding of the layout — the
// (ObjectID, Class) pairs sorted by ID — for use as a memo-table key.
// Two layouts have equal keys iff Equal reports true, so the search
// engine's cache can never conflate distinct layouts.
func (l Layout) Key() string { return layoutKey(l) }

// Equal reports whether two layouts place every object identically.
func (l Layout) Equal(o Layout) bool { return equalLayouts(l, o) }

// SpaceByClass returns S_j: the bytes each storage class holds under this
// layout.
func (l Layout) SpaceByClass(c *Catalog) map[device.Class]int64 {
	out := make(map[device.Class]int64)
	for id, cls := range l {
		if o := c.Object(id); o != nil {
			out[cls] += o.SizeBytes
		}
	}
	return out
}

// SortedClasses returns the keys of a per-class aggregate in ascending
// class order. Float sums over classes iterate this order on both the map
// and the compiled path, so the two produce bit-identical totals.
func SortedClasses[V any](m map[device.Class]V) []device.Class {
	out := make([]device.Class, 0, len(m))
	for cls := range m {
		out = append(out, cls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CostCentsPerHour computes the layout cost C(L) = sum_j p_j * S_j in
// cents per hour (paper §2.1). Classes are summed in ascending order so the
// float total is deterministic and matches CompactLayout.PriceDense bit for
// bit.
func (l Layout) CostCentsPerHour(c *Catalog, box *device.Box) (float64, error) {
	return spaceCost(l.SpaceByClass(c), box)
}

// spaceCost prices per-class byte totals under the linear model.
func spaceCost(space map[device.Class]int64, box *device.Box) (float64, error) {
	var cost float64
	for _, cls := range SortedClasses(space) {
		d := box.Device(cls)
		if d == nil {
			return 0, fmt.Errorf("catalog: layout uses class %v not present in box %q", cls, box.Name)
		}
		cost += d.PriceCents * float64(space[cls]) / 1e9
	}
	return cost, nil
}

// CheckCapacity validates the capacity constraints sum_{o in Oj} s_i < c_j
// (paper §2.2). It returns nil when the layout fits.
func (l Layout) CheckCapacity(c *Catalog, box *device.Box) error {
	return spaceFits(l.SpaceByClass(c), box)
}

// spaceFits checks per-class byte totals against the box's capacities.
func spaceFits(space map[device.Class]int64, box *device.Box) error {
	for _, cls := range SortedClasses(space) {
		d := box.Device(cls)
		if d == nil {
			return fmt.Errorf("catalog: layout uses class %v not present in box %q", cls, box.Name)
		}
		if space[cls] >= d.CapacityBytes {
			return fmt.Errorf("catalog: class %v over capacity: %d bytes placed, capacity %d",
				cls, space[cls], d.CapacityBytes)
		}
	}
	return nil
}

// String renders the layout grouped by storage class, objects sorted by
// name, in the style of the paper's Figure 4/6 and Table 3.
func (l Layout) String(c *Catalog) string {
	byClass := make(map[device.Class][]string)
	for id, cls := range l {
		if o := c.Object(id); o != nil {
			byClass[cls] = append(byClass[cls], o.Name)
		}
	}
	var classes []device.Class
	for cls := range byClass {
		classes = append(classes, cls)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var b strings.Builder
	for _, cls := range classes {
		names := byClass[cls]
		sort.Strings(names)
		fmt.Fprintf(&b, "%-12s: %s\n", cls, strings.Join(names, ", "))
	}
	return b.String()
}

// NewUniformSetLayout places every catalog object on one class set.
func NewUniformSetLayout(c *Catalog, set device.ClassSet) SetLayout {
	l := make(SetLayout, len(c.objects))
	for id := range c.objects {
		l[id] = set
	}
	return l
}

// SingletonSetLayout lifts a single-class layout to the class-set form,
// each object placed on the singleton set of its class.
func SingletonSetLayout(l Layout) SetLayout {
	out := make(SetLayout, len(l))
	for id, cls := range l {
		out[id] = device.Singleton(cls)
	}
	return out
}

// SingleLayout collapses the layout back to the single-class form. ok=false
// when some object holds more than one copy — the layout is genuinely
// replicated and has no lossless single-class form.
func (l SetLayout) SingleLayout() (Layout, bool) {
	out := make(Layout, len(l))
	for id, set := range l {
		c, ok := set.Single()
		if !ok {
			return nil, false
		}
		out[id] = c
	}
	return out, true
}

// MaxCopies returns the largest replica count of any unit — 1 on a
// single-class layout, 0 on an empty one.
func (l SetLayout) MaxCopies() int {
	n := 0
	for _, set := range l {
		n = max(n, set.Count())
	}
	return n
}

// Clone returns a copy of the layout.
func (l SetLayout) Clone() SetLayout { return cloneLayout(l) }

// Equal reports whether two layouts place every object on the same class
// set.
func (l SetLayout) Equal(o SetLayout) bool { return equalLayouts(l, o) }

// Key returns a canonical byte-string encoding — (ObjectID, mask) pairs
// sorted by ID. Two layouts have equal keys iff Equal reports true. It is
// not the Layout key of the single-class view (a mask byte is 1<<class).
func (l SetLayout) Key() string { return layoutKey(l) }

// SpaceByClass returns S_j: every class holding a copy of an object is
// charged the object's full size.
func (l SetLayout) SpaceByClass(c *Catalog) map[device.Class]int64 {
	out := make(map[device.Class]int64)
	for id, set := range l {
		o := c.Object(id)
		if o == nil {
			continue
		}
		for cls := device.Class(0); int(cls) < device.NumClasses; cls++ {
			if set.Has(cls) {
				out[cls] += o.SizeBytes
			}
		}
	}
	return out
}

// Space totals the layout per class in the form the search prices from —
// the map-form sibling of CompactLayout.Space, with which it agrees on every
// layout both can express. Objects absent from the catalog count for
// nothing, as in SpaceByClass.
func (l SetLayout) Space(c *Catalog) ClassSpace {
	var s ClassSpace
	for id, set := range l {
		if o := c.Object(id); o != nil {
			s.charge(byte(set), o.SizeBytes, 1)
		}
	}
	return s
}

// CostCentsPerHour computes the layout cost sum_j p_j * S_j with every copy
// charged its full size. Classes are summed in ascending order with the
// single-class expression, so a layout of singleton sets prices
// bit-identically to its Layout form and to CompactLayout.PriceDense.
func (l SetLayout) CostCentsPerHour(c *Catalog, box *device.Box) (float64, error) {
	return spaceCost(l.SpaceByClass(c), box)
}

// CheckCapacity validates the capacity constraints with every copy charged
// its full size.
func (l SetLayout) CheckCapacity(c *Catalog, box *device.Box) error {
	return spaceFits(l.SpaceByClass(c), box)
}

// String renders the layout one object per line, sorted by object name,
// each with its copy set.
func (l SetLayout) String(c *Catalog) string {
	type row struct{ name, set string }
	rows := make([]row, 0, len(l))
	for id, set := range l {
		if o := c.Object(id); o != nil {
			rows = append(rows, row{o.Name, set.String()})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s: %s\n", r.name, r.set)
	}
	return b.String()
}
