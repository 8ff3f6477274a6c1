package core_test

import (
	"testing"

	"ursa/internal/core"
	"ursa/internal/experiments"
	"ursa/internal/sim"
)

// BenchmarkExploreService runs Algorithm 1 for one social-network service at
// the experiment harness's exploration settings for Scale 0.5 (seed 1, 15 s
// windows, 5 windows per point). home-timeline is MQ-fed, so the
// harness explores it at the default backpressure threshold of 1.0, as here,
// with no profiling sweep first. It is the unit-level view of setup's
// allocation: run it with -benchmem.
func BenchmarkExploreService(b *testing.B) {
	c, ok := experiments.AppCaseByName("social-network")
	if !ok {
		b.Fatal("missing app case social-network")
	}
	ex := &core.Explorer{Spec: c.Spec, Mix: c.Mix, TotalRPS: c.TotalRPS}
	cfg := core.ExploreConfig{WindowsPerPoint: 5, Window: 15 * sim.Second, SLAViolationFreq: 0.10, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExploreService("home-timeline", cfg); err != nil {
			b.Fatal(err)
		}
	}
}
