package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a tail percentile for
// the percentile to be reported: with fewer, the figure is one or two
// outliers, not a property of the system.
const minTailSamples = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// sorted ascending samples. A tail percentile (p > 0.5) with fewer than
// minTailSamples samples beyond it is refused; the median is always
// answered for a non-empty sample.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of an empty sample")
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; p > 0.5 && beyond < minTailSamples {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, fewer than %d", p*100, n, beyond, minTailSamples)
	}
	return sorted[rank-1], nil
}

// tailSteps are the percentiles supportedTail falls back through.
var tailSteps = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// supportedTail returns the wanted percentile when the sample supports it
// and otherwise the highest step below it that the sample does support —
// in the end the median — together with the percentile actually used.
func supportedTail(sorted []float64, want float64) (value, used float64, err error) {
	if v, err := percentile(sorted, want); err == nil {
		return v, want, nil
	}
	for _, p := range tailSteps {
		if p >= want {
			continue
		}
		if v, err := percentile(sorted, p); err == nil {
			return v, p, nil
		}
	}
	return 0, 0, fmt.Errorf("no percentile of %d samples can be reported", len(sorted))
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median returns the middle of v (the mean of the two middle values for an
// even count), 0 for an empty sample.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (the exclusive method) — the driver
// judges this benchmark's steadiness with that function, so the -repeat
// report must agree with it. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64, err error) {
	m := len(v)
	if m < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least two values, got %d", m)
	}
	s := sortedCopy(v)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// geoMean returns the geometric mean of positive values, 0 when empty.
func geoMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}
