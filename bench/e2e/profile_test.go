package main

import (
	"math"
	"os"
	"reflect"
	"testing"
)

func TestParseTracesAttributesPackages(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("parsed %d stacks, want 5", len(samples))
	}
	wantFrames := []string{
		"runtime.mallocgc",
		"ursa/internal/services.(*App).getRequest",
		"ursa/internal/services.(*App).injectAt",
		"ursa/internal/sim.(*Engine).fireTop",
		"main.(*runner).runPhase",
	}
	if !reflect.DeepEqual(samples[2].frames, wantFrames) {
		t.Errorf("frames of stack 3 = %q, want %q", samples[2].frames, wantFrames)
	}

	m := map[string]float64{}
	layerShares(samples, m)
	want := map[string]float64{
		"runtime.cpu_pct":  1,    // no program frame: the sweeper
		"sim.cpu_pct":      60,   // 1.20s
		"services.cpu_pct": 25,   // mallocgc under services is services' cost
		"other.cpu_pct":    12.5, // ursa/internal/lp is the innermost program frame
		"stats.cpu_pct":    1.5,  // sort under stats
		"core.cpu_pct":     0,
	}
	for name, v := range want {
		if math.Abs(m[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}

	setupShares(samples, m)
	for name, v := range map[string]float64{
		"core.setup_profiling_pct": 1.5,
		"core.setup_explore_pct":   0,
		"core.setup_admit_pct":     12.5,
		"spec.setup_pct":           0,
	} {
		if math.Abs(m[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
}

func TestParseDurationUnits(t *testing.T) {
	for in, want := range map[string]float64{
		"10ms": 0.01, "1.50s": 1.5, "250us": 250e-6, "2hrs": 7200, "7ns": 7e-9,
	} {
		got, err := parseDuration(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseDuration("3 apples"); err == nil {
		t.Error("parseDuration accepted an unknown unit")
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 0, Parent: -1, Name: "bench.run", Start: 0, End: 100e6},
		{ID: 1, Parent: 0, Name: "sim.minute", Start: 0, End: 80e6},
		{ID: 2, Parent: 1, Name: "core.evict", Start: 10e6, End: 30e6},
		{ID: 3, Parent: 2, Name: "cluster.place", Start: 12e6, End: 17e6},
	}}
	want := map[string]float64{"bench": 20, "sim": 60, "core": 15, "cluster": 5}
	if got := r.selfTimes(); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
