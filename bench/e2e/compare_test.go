package main

import "testing"

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, cur []float64
		better   string
		bound    float64
		want     verdict
	}{
		{"within bound", []float64{100, 101, 99, 100, 100}, []float64{104, 105, 103, 104, 104}, "lower", 0.10, verdictOK},
		{"worse than bound", []float64{100, 101, 99, 100, 100}, []float64{115, 116, 114, 115, 115}, "lower", 0.10, verdictRegressed},
		{"higher is better, worse", []float64{100, 101, 99, 100, 100}, []float64{85, 86, 84, 85, 85}, "higher", 0.10, verdictRegressed},
		{"beyond the old spread", []float64{100, 101, 99, 100, 100}, []float64{95, 96, 94, 95, 95}, "lower", 0.10, verdictImproved},
		{"higher is better, better", []float64{100, 101, 99, 100, 100}, []float64{120, 121, 119, 120, 120}, "higher", 0.10, verdictImproved},
		{"spread wider than bound", []float64{80, 120, 100, 90, 110}, []float64{125, 95, 115, 105, 85}, "lower", 0.10, verdictUnresolved},
		{"spread wide, medians far apart", []float64{80, 120, 100, 90, 110}, []float64{100, 140, 120, 110, 130}, "lower", 0.10, verdictUnresolved},
		{"spread wide, every new run worse", []float64{80, 90, 100, 110, 120}, []float64{130, 140, 150, 160, 170}, "lower", 0.10, verdictRegressed},
		{"spread wide, every new run better", []float64{80, 90, 100, 110, 120}, []float64{40, 50, 60, 70, 75}, "lower", 0.10, verdictImproved},
		{"exact and equal", []float64{3, 3}, []float64{3, 3}, "lower", 0, verdictOK},
		{"exact and worse", []float64{3, 3}, []float64{3.0001, 3.0001}, "lower", 0, verdictRegressed},
		{"exact and better", []float64{3, 3}, []float64{2, 2}, "lower", 0, verdictImproved},
	} {
		if got := classify(tc.old, tc.cur, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: classify = %s, want %s", tc.name, got, tc.want)
		}
	}
}
