package provision

import (
	"fmt"
	"sort"
	"strings"

	"dotprov/internal/device"
)

// DeviceOption declares one axis of the candidate grid: a storage class and
// the unit counts it may be provisioned with. A count of 0 means the class
// may be left out of the box entirely.
type DeviceOption struct {
	Class  device.Class
	Counts []int
}

// Grid is the declarative candidate space of the generalized provisioning
// problem (§5.2): every combination of device unit counts, crossed with
// every alpha blend point of the discrete-sized cost model. Enumerate turns
// it into the candidate configurations f_i of §5.1.
type Grid struct {
	// Devices lists the per-class count options. The cross product of the
	// counts (minus the empty box) defines the candidate boxes.
	Devices []DeviceOption
	// Alphas are the §5.2 cost blend points to sweep; empty means {0}, the
	// purely linear model of §2.1.
	Alphas []float64
	// MaxClasses optionally bounds how many distinct classes a candidate box
	// may contain (0 = unbounded). Real controllers use it to cap hardware
	// heterogeneity.
	MaxClasses int
}

// alphas returns the effective blend points.
func (g Grid) alphas() []float64 {
	if len(g.Alphas) == 0 {
		return []float64{0}
	}
	return g.Alphas
}

// Validate checks the grid's declarative constraints.
func (g Grid) Validate() error {
	if len(g.Devices) == 0 {
		return fmt.Errorf("provision: grid declares no device options")
	}
	seen := make(map[device.Class]bool)
	anyPositive := false
	for _, o := range g.Devices {
		if seen[o.Class] {
			return fmt.Errorf("provision: grid declares class %v twice", o.Class)
		}
		seen[o.Class] = true
		if len(o.Counts) == 0 {
			return fmt.Errorf("provision: class %v has no counts", o.Class)
		}
		for _, n := range o.Counts {
			if n < 0 {
				return fmt.Errorf("provision: class %v has negative count %d", o.Class, n)
			}
			if n > 0 {
				anyPositive = true
			}
		}
	}
	if !anyPositive {
		return fmt.Errorf("provision: grid has no positive device count (every candidate box would be empty)")
	}
	for _, a := range g.alphas() {
		if a < 0 || a > 1 {
			return fmt.Errorf("provision: alpha must be in [0, 1], got %g", a)
		}
	}
	return nil
}

// UnitCount is one class's provisioned unit count within a candidate box.
type UnitCount struct {
	Class device.Class
	Units int
}

// BoxSpec is one enumerated candidate configuration: a concrete box (unit
// counts per class) plus the alpha blend point its layouts are priced with.
type BoxSpec struct {
	// Index is the candidate's position in enumeration order; sweeps break
	// TOC ties toward the lowest index, so results are deterministic at any
	// worker count.
	Index int
	Name  string
	Units []UnitCount // classes with Units > 0, in grid order
	Alpha float64
}

// Box materialises the candidate's device box.
func (s BoxSpec) Box() *device.Box {
	b := &device.Box{Name: s.Name}
	for _, u := range s.Units {
		b.Devices = append(b.Devices, device.NewScaled(u.Class, u.Units))
	}
	return b
}

// specName renders a stable human-readable candidate name.
func specName(units []UnitCount, alpha float64) string {
	var parts []string
	for _, u := range units {
		parts = append(parts, fmt.Sprintf("%sx%d", u.Class, u.Units))
	}
	return fmt.Sprintf("%s alpha=%g", strings.Join(parts, " + "), alpha)
}

// Enumerate expands the grid into candidate configurations in a fixed
// order: device counts vary in odometer order (last option fastest), and
// each box is crossed with every alpha. The all-empty box is skipped; boxes
// exceeding MaxClasses are skipped. It errors when the grid is invalid or
// yields no candidate.
func (g Grid) Enumerate() ([]BoxSpec, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	idx := make([]int, len(g.Devices))
	var specs []BoxSpec
	for {
		var units []UnitCount
		for i, o := range g.Devices {
			if n := o.Counts[idx[i]]; n > 0 {
				units = append(units, UnitCount{Class: o.Class, Units: n})
			}
		}
		if len(units) > 0 && (g.MaxClasses <= 0 || len(units) <= g.MaxClasses) {
			for _, a := range g.alphas() {
				specs = append(specs, BoxSpec{
					Index: len(specs),
					Name:  specName(units, a),
					Units: append([]UnitCount(nil), units...),
					Alpha: a,
				})
			}
		}
		// Advance the odometer, last option fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(g.Devices[i].Counts) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("provision: grid enumerates no candidate (every combination empty or over MaxClasses)")
	}
	return specs, nil
}

// Universe returns a box containing one device of every class that appears
// in the grid with a positive count. Estimators bound to the universe box
// can price I/O for ANY candidate's layouts (service times are per class,
// not per unit count), which is what lets a sweep compile its estimator
// once for all candidates.
func (g Grid) Universe() *device.Box {
	classes := make(map[device.Class]bool)
	for _, o := range g.Devices {
		for _, n := range o.Counts {
			if n > 0 {
				classes[o.Class] = true
			}
		}
	}
	ordered := make([]device.Class, 0, len(classes))
	for c := range classes {
		ordered = append(ordered, c)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	b := &device.Box{Name: "grid universe"}
	for _, c := range ordered {
		b.Devices = append(b.Devices, device.New(c))
	}
	return b
}

// Key returns a canonical string encoding of the grid, for use in cache
// keys (e.g. dotserve's sweep-result memo).
func (g Grid) Key() string {
	var b strings.Builder
	for _, o := range g.Devices {
		fmt.Fprintf(&b, "%d:", o.Class)
		for _, n := range o.Counts {
			fmt.Fprintf(&b, "%d,", n)
		}
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, a := range g.alphas() {
		fmt.Fprintf(&b, "%g,", a)
	}
	fmt.Fprintf(&b, "|%d", g.MaxClasses)
	return b.String()
}
