package experiments

import (
	"strings"
	"testing"
)

func TestResilienceShapes(t *testing.T) {
	r, err := RunResilience(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(ResilienceSystems())*2 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	for _, system := range ResilienceSystems() {
		base, ok := r.Cell(system, "no-fault")
		if !ok {
			t.Fatalf("missing no-fault cell for %s", system)
		}
		fail, ok := r.Cell(system, "node-fail")
		if !ok {
			t.Fatalf("missing node-fail cell for %s", system)
		}
		if base.Evicted != 0 || base.RecoveryMin != 0 {
			t.Errorf("%s no-fault: evicted=%d recovery=%v, want zeros", system, base.Evicted, base.RecoveryMin)
		}
		if fail.Evicted == 0 {
			t.Errorf("%s node-fail: nothing evicted — node-7 held no replicas?", system)
		}
		for _, c := range []OutageCell{base, fail} {
			if c.Availability <= 0 || c.Availability > 1 {
				t.Errorf("%s/%s availability = %v", c.System, c.Scenario, c.Availability)
			}
			if c.AvgCPUs <= 0 {
				t.Errorf("%s/%s avg CPUs = %v", c.System, c.Scenario, c.AvgCPUs)
			}
		}
	}
	out := r.Render()
	if !strings.Contains(out, "Fig.F1") || !strings.Contains(out, "node-fail") {
		t.Errorf("render missing sections:\n%s", out)
	}
}

// TestResilienceParallelismInvariant asserts the figf1 grid renders
// byte-identically at any worker-pool size — the determinism contract every
// experiment in this package keeps.
func TestResilienceParallelismInvariant(t *testing.T) {
	seq := quick()
	seq.Parallelism = 1
	par := quick()
	par.Parallelism = 4
	a, errA := RunResilience(seq)
	b, errB := RunResilience(par)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a, b := a.Render(), b.Render(); a != b {
		t.Fatalf("output differs across parallelism:\n--- seq ---\n%s--- par ---\n%s", a, b)
	}
}

// BenchmarkResilience is the `make bench-resilience` smoke target: one full
// small-scale figf1 grid per iteration.
func BenchmarkResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := quick()
		opts.Parallelism = 1
		if _, err := RunResilience(opts); err != nil {
			b.Fatal(err)
		}
	}
}
