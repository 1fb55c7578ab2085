package core

import (
	"fmt"
	"sort"
	"time"

	"dotprov/internal/catalog"
)

// ObjectAdvisor implements the paper's closest prior work, the Object
// Advisor of Canim et al. [10], as the evaluation's baseline (§4.2, §6):
// a greedy placer that maximises workload performance by moving the objects
// with the highest I/O-time benefit per byte onto the fast device until its
// capacity budget is exhausted. It is two-tier (fast vs slow), is not aware
// of the TOC, and prices nothing.
//
// The profile is taken from a run on the all-slow layout, mirroring OA's
// "collect I/O statistics, then decide" flow; its query-plan assumptions
// are therefore frozen at that layout (the paper's §6 criticism: "their
// query optimizer is not aware of the specific characteristics of the
// SSDs").
func ObjectAdvisor(in Input) (catalog.Layout, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if in.Profiles == nil {
		return nil, fmt.Errorf("core: Object Advisor requires workload profiles")
	}
	slow := in.Box.Cheapest()
	fast := in.Box.MostExpensive()
	maxK := in.Profiles.MaxK()
	if maxK < 1 {
		maxK = 1
	}
	prof, err := in.Profiles.For(Uniform(slow.Class, maxK))
	if err != nil {
		return nil, err
	}

	type scored struct {
		obj     catalog.ObjectID
		size    int64
		benefit time.Duration // I/O time saved by moving slow -> fast
	}
	svc := in.Box.ServiceTimes(in.conc())
	var objs []scored
	for _, o := range in.Cat.Objects() {
		ts := prof.ObjectIOTime(o.ID, svc[slow.Class])
		tf := prof.ObjectIOTime(o.ID, svc[fast.Class])
		objs = append(objs, scored{obj: o.ID, size: o.SizeBytes, benefit: ts - tf})
	}
	sort.SliceStable(objs, func(i, j int) bool {
		bi := perByte(objs[i].benefit, objs[i].size)
		bj := perByte(objs[j].benefit, objs[j].size)
		if bi != bj {
			return bi > bj
		}
		return objs[i].obj < objs[j].obj
	})

	layout := catalog.NewUniformLayout(in.Cat, slow.Class)
	var used int64
	for _, s := range objs {
		if s.benefit <= 0 {
			break
		}
		// Strictly-greater: an object that exactly fills the remaining fast
		// budget is still admitted (>= used to reject the exact fit). Note
		// the deliberate semantic difference from DOT's capacity constraint:
		// OA's prior-work greedy treats the fast device as an inclusive
		// byte budget (sum <= c), whereas the paper's layout constraint is
		// strict (sum < c_j, CheckCapacity) — an exact-fit OA layout is
		// therefore one the TOC-aware search would refuse, which is part of
		// the §6 contrast the baseline exists to show.
		if used+s.size > fast.CapacityBytes {
			continue
		}
		layout[s.obj] = fast.Class
		used += s.size
	}
	return layout, nil
}

func perByte(d time.Duration, size int64) float64 {
	if size <= 0 {
		return float64(d) // zero-size objects are free to move
	}
	return float64(d) / float64(size)
}
