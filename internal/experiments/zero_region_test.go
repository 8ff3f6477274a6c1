package experiments

import (
	"os"
	"testing"
)

// assertGolden compares a rendered table with its checked-in golden. The
// zero-region goldens were captured at the commit immediately before the
// region subsystem (and call-step error rates) landed. A zero-region,
// zero-error-rate run must stay byte-identical to those builds: the region
// layer installs no placer, no net hook and no RNG stream unless a topology
// is configured, and error draws create their stream lazily on first nonzero
// ErrorProb. The other goldens pin each experiment's rendered table across
// refactors of the scenario runner.
func assertGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing: %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

func TestZeroRegionBackpressureByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig2 grid in -short mode")
	}
	opts := Options{Seed: 1, Scale: 0.25, Parallelism: 4}
	assertGolden(t, "testdata/fig2_zero_region.golden", RunBackpressure(opts).Render())
}

func TestZeroRegionResilienceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full figf1 grid in -short mode")
	}
	opts := Options{Seed: 1, Scale: 0.25, Parallelism: 4}
	r, err := RunResilience(opts)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "testdata/figf1_zero_region.golden", r.Render())
}
