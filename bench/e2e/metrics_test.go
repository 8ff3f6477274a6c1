package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(data, n=4) from Python 3.
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{4, 4, 4, 4}, 4, 4, 4},
		{[]float64{10.5, 7.25, 9.0, 12.0, 8.5}, 7.875, 9, 11.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.data); m != q2 {
			t.Errorf("median(%v) = %v, want %v", tc.data, m, q2)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	for p, want := range map[float64]float64{0: 1, 50: 2.5, 90: 3.7, 100: 4} {
		if got := percentile(vals, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", vals, p, got, want)
		}
	}
	if vals[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no values = %v, want 0", got)
	}
}
