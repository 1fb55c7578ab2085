package executor

import (
	"time"

	"dotprov/internal/plan"
	"dotprov/internal/types"
)

// aggState accumulates one aggregate function over a group.
type aggState struct {
	fn    plan.AggFunc
	count int64
	sum   float64
	min   types.Value
	max   types.Value
	seen  bool
}

func (a *aggState) add(v types.Value) {
	a.count++
	switch a.fn {
	case plan.Sum, plan.Avg:
		a.sum += v.AsFloat()
	case plan.Min:
		if !a.seen || types.Compare(v, a.min) < 0 {
			a.min = v
		}
	case plan.Max:
		if !a.seen || types.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
	a.seen = true
}

func (a *aggState) result() types.Value {
	switch a.fn {
	case plan.Count:
		return types.NewInt(a.count)
	case plan.Sum:
		return types.NewFloat(a.sum)
	case plan.Avg:
		if a.count == 0 {
			return types.NewFloat(0)
		}
		return types.NewFloat(a.sum / float64(a.count))
	case plan.Min:
		return a.min
	case plan.Max:
		return a.max
	default:
		return types.Value{}
	}
}

func (e *exec) aggregate(a *plan.AggNode, emit func(types.Tuple) bool) error {
	// The input is asked for the group-by and aggregated columns only.
	inSchema := a.Input.Schema()
	ask := make([]bool, len(inSchema))
	groupPos := make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		p, err := colPos(inSchema, g)
		if err != nil {
			return err
		}
		groupPos[i], ask[p] = p, true
	}
	aggPos := make([]int, len(a.Aggs))
	for i, g := range a.Aggs {
		if g.Func == plan.Count && g.Column == "" {
			aggPos[i] = -1
			continue
		}
		p, err := colPos(inSchema, plan.ColRef{Table: g.Table, Column: g.Column})
		if err != nil {
			return err
		}
		aggPos[i], ask[p] = p, true
	}

	type group struct {
		key    types.Tuple
		states []aggState
	}
	groups := make(map[string]*group)
	var order []*group // deterministic output order (first seen)
	var keyBuf []byte
	perRow := plan.CPUHashTime + plan.CPUAggTime*time.Duration(len(a.Aggs))

	err := e.run(a.Input, ask, func(tu types.Tuple) bool {
		e.acct.ChargeCPU(perRow)
		keyBuf = keyBuf[:0]
		for _, p := range groupPos {
			keyBuf = types.EncodeKey(keyBuf, tu[p])
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &group{key: make(types.Tuple, len(groupPos)), states: make([]aggState, len(a.Aggs))}
			for i := range g.states {
				g.states[i].fn = a.Aggs[i].Func
			}
			for i, p := range groupPos {
				g.key[i] = tu[p]
			}
			groups[string(keyBuf)] = g
			order = append(order, g)
		}
		for i := range g.states {
			if aggPos[i] < 0 {
				g.states[i].add(types.NewInt(1))
			} else {
				g.states[i].add(tu[aggPos[i]])
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	// Output rows are assembled in one reused tuple.
	out := make(types.Tuple, 0, len(a.GroupBy)+len(a.Aggs))
	// A global aggregate over an empty input still yields one row (count=0).
	if len(groups) == 0 && len(a.GroupBy) == 0 {
		for _, g := range a.Aggs {
			if g.Func == plan.Count {
				out = append(out, types.NewInt(0))
			} else {
				out = append(out, types.NewFloat(0))
			}
		}
		emit(out)
		return nil
	}
	for _, g := range order {
		out = append(out[:0], g.key...)
		for i := range g.states {
			out = append(out, g.states[i].result())
		}
		if !emit(out) {
			return nil
		}
	}
	return nil
}
