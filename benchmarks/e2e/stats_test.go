package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileRefusesThinTails(t *testing.T) {
	// 100 samples 1..100: p90 is the 90th, with exactly ten beyond it.
	if v, err := percentile(seq(100), 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	// p95 leaves five beyond: refused.
	if _, err := percentile(seq(100), 0.95); err == nil {
		t.Fatal("p95 of 100 samples has 5 beyond it and must be refused")
	}
	// 199 samples: p95 is rank 190, nine beyond — refused; 200: rank 190, ten beyond.
	if _, err := percentile(seq(199), 0.95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(200), 0.95); err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	// The median is answered for any non-empty sample.
	if v, err := percentile(seq(3), 0.5); err != nil || v != 2 {
		t.Fatalf("median of 1..3 = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of nothing must be an error")
	}
}

func TestSupportedTailFallsBack(t *testing.T) {
	cases := []struct {
		n          int
		want, used float64
	}{
		{1000, 0.95, 0.95},
		{120, 0.95, 0.90}, // p95 leaves 6 beyond, p90 leaves 12
		{46, 0.90, 0.75},  // p90 leaves 4, p75 leaves 11
		{12, 0.95, 0.50},
		{12, 0.50, 0.50},
	}
	for _, c := range cases {
		_, used, err := supportedTail(seq(c.n), c.want)
		if err != nil || used != c.used {
			t.Errorf("supportedTail(n=%d, p%g) used p%g, %v; want p%g", c.n, c.want*100, used*100, err, c.used*100)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// returns for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.v)
		if err != nil || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v %v %v", c.v, q1, q2, q3, err, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value must be an error")
	}
}

func TestMedianAndGeoMean(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if g := geoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geoMean(2, 8) = %v, want 4", g)
	}
}
