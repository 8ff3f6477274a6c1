package experiments

import (
	"strings"
	"testing"
)

func TestRegionFailoverShapes(t *testing.T) {
	r, err := RunRegionFailover(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(RegionSystems())*2 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	assertGolden(t, "testdata/figr1.golden", r.Render())
	for _, system := range RegionSystems() {
		base, ok := r.Cell(system, "no-fault")
		if !ok {
			t.Fatalf("missing no-fault cell for %s", system)
		}
		fail, ok := r.Cell(system, "region-fail")
		if !ok {
			t.Fatalf("missing region-fail cell for %s", system)
		}
		if base.Evicted != 0 || base.RecoveryMin != 0 {
			t.Errorf("%s no-fault: evicted=%d recovery=%v, want zeros", system, base.Evicted, base.RecoveryMin)
		}
		if fail.Evicted == 0 {
			t.Errorf("%s region-fail: nothing evicted — eu-west held no replicas?", system)
		}
		for _, c := range []OutageCell{base, fail} {
			if c.Availability <= 0 || c.Availability > 1 {
				t.Errorf("%s/%s availability = %v", c.System, c.Scenario, c.Availability)
			}
			if c.AvgCPUs <= 0 {
				t.Errorf("%s/%s avg CPUs = %v", c.System, c.Scenario, c.AvgCPUs)
			}
			// Every interactive request crosses at least one WAN edge
			// (frontend region → storage region), so a run without hops
			// means the injector never saw cross-region traffic.
			if c.WANHops == 0 {
				t.Errorf("%s/%s: no WAN hops recorded", c.System, c.Scenario)
			}
		}
	}

	// The Fig. R1 claim: Ursa's cross-region re-solve rides through the
	// outage with availability no worse than the per-region autoscalers,
	// and actually recovers the SLA.
	ursa, _ := r.Cell("ursa", "region-fail")
	if ursa.Spilled == 0 {
		t.Errorf("ursa region-fail: no replicas spilled out of the dead region")
	}
	if ursa.RecoveryMin < 0 {
		t.Errorf("ursa region-fail: SLA never recovered")
	}
	for _, system := range RegionSystems()[1:] {
		c, _ := r.Cell(system, "region-fail")
		if ursa.Availability < c.Availability {
			t.Errorf("ursa availability %.4f < %s availability %.4f under region failure",
				ursa.Availability, system, c.Availability)
		}
	}

	out := r.Render()
	if !strings.Contains(out, "Fig.R1") || !strings.Contains(out, "region-fail") {
		t.Errorf("render missing sections:\n%s", out)
	}
}

func TestFollowTheSunShapes(t *testing.T) {
	r, err := RunFollowTheSun(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(SunSystems())*len(sunRegions()) {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	for _, system := range SunSystems() {
		for _, reg := range sunRegions() {
			c, ok := r.Cell(system, reg)
			if !ok {
				t.Fatalf("missing cell %s/%s", system, reg)
			}
			if c.Availability <= 0 || c.Availability > 1 {
				t.Errorf("%s/%s availability = %v", system, reg, c.Availability)
			}
			if c.AvgCPUs <= 0 || c.PeakCPUs < c.AvgCPUs {
				t.Errorf("%s/%s cpus: avg=%v peak=%v", system, reg, c.AvgCPUs, c.PeakCPUs)
			}
			// Spill off means placement can never leave the home region.
			if system != "ursa" && c.Spilled != 0 {
				t.Errorf("%s/%s spilled %d replicas with spill off", system, reg, c.Spilled)
			}
		}
	}
	// The Fig. R2 claim: with spill, at least one tenant's peak exceeds its
	// own region's capacity — it borrowed trough capacity elsewhere.
	capacity := 0.0
	for _, cp := range sunTopology().Groups[0].Capacities {
		capacity += cp
	}
	overCap := false
	for _, reg := range sunRegions() {
		c, _ := r.Cell("ursa", reg)
		if c.PeakCPUs > capacity {
			overCap = true
		}
	}
	if !overCap {
		t.Errorf("ursa: no tenant peaked above its region capacity %.0f — nothing followed the sun", capacity)
	}
	if !strings.Contains(r.Render(), "Fig.R2") {
		t.Errorf("render missing header:\n%s", r.Render())
	}
}

// TestRegionParallelismInvariant asserts both region grids render
// byte-identically at any worker-pool size — the determinism contract every
// experiment in this package keeps.
func TestRegionParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("duplicate figr1 grid in -short mode")
	}
	seq := quick()
	seq.Parallelism = 1
	par := quick()
	par.Parallelism = 4
	a, errA := RunRegionFailover(seq)
	b, errB := RunRegionFailover(par)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a, b := a.Render(), b.Render(); a != b {
		t.Fatalf("figr1 output differs across parallelism:\n--- seq ---\n%s--- par ---\n%s", a, b)
	}
	sunSeq, err := RunFollowTheSun(seq)
	if err != nil {
		t.Fatal(err)
	}
	sunPar, err := RunFollowTheSun(par)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sunSeq.Render(), sunPar.Render(); a != b {
		t.Fatalf("figr2 output differs across parallelism:\n--- seq ---\n%s--- par ---\n%s", a, b)
	}
}

// BenchmarkRegion is the `make bench-region` smoke target: one small-scale
// figr1 + figr2 grid per iteration.
func BenchmarkRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := quick()
		opts.Parallelism = 1
		if _, err := RunRegionFailover(opts); err != nil {
			b.Fatal(err)
		}
		if _, err := RunFollowTheSun(opts); err != nil {
			b.Fatal(err)
		}
	}
}
