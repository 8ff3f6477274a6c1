package core

import (
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
)

// heavyService is a post-storage-like RPC service for profiling tests.
func heavyService() services.ServiceSpec {
	return services.ServiceSpec{
		Name: "post-storage", Threads: 4096, Daemons: 64, CPUs: 2,
		IngressCostMs: 0.3, IngressWindow: 24,
		Handlers: map[string][]services.Step{
			"read":  services.Seq(services.Compute{MeanMs: 2.4, CV: 0.4}),
			"write": services.Seq(services.Compute{MeanMs: 1.6, CV: 0.4}),
		},
	}
}

// TestProfileBackpressureThreshold checks the shape of the full sweep
// (Steps[0] is the lowest CPU limit), so it reads the curve call.
func TestProfileBackpressureThreshold(t *testing.T) {
	svc := heavyService()
	// Offered load ≈ 1.4 core-sec/s of handler work on 2 CPUs: saturated
	// at low limits, comfortable at the nominal limit.
	res := ProfileBackpressureCurve(svc, map[string]float64{"read": 400, "write": 250}, ProfilerConfig{
		Seed: 7,
	})
	if res.Threshold <= 0.2 || res.Threshold >= 0.98 {
		t.Fatalf("threshold = %v, want a mid-range utilisation", res.Threshold)
	}
	if len(res.Steps) < 5 {
		t.Fatalf("only %d sweep steps", len(res.Steps))
	}
	// Proxy latency at the lowest CPU limit must be far above the converged
	// latency (the paper reports >5-10× at backpressure).
	first, last := res.Steps[0], res.Steps[len(res.Steps)-1]
	if first.ProxyP99Mean < last.ProxyP99Mean*2 {
		t.Fatalf("no backpressure visible in sweep: first %.2fms, last %.2fms",
			first.ProxyP99Mean, last.ProxyP99Mean)
	}
	if !last.Converged {
		t.Fatal("sweep never converged")
	}
	// Utilisation decreases as the limit grows (same work, more CPU).
	if first.Util <= last.Util {
		t.Fatalf("utilisation did not fall with CPU limit: %.2f → %.2f", first.Util, last.Util)
	}
}

func TestProfileMQServiceSkipsSweep(t *testing.T) {
	svc := services.ServiceSpec{
		Name: "ml", Threads: 8, CPUs: 4,
		Handlers: map[string][]services.Step{"job": services.Seq(services.Compute{MeanMs: 100})},
	}
	res := ProfileBackpressureThreshold(svc, map[string]float64{"job": 10}, ProfilerConfig{})
	if res.Threshold != 1.0 || len(res.Steps) != 0 {
		t.Fatalf("MQ service should skip the sweep: %+v", res)
	}
}

func TestComputeOnlyStripsCalls(t *testing.T) {
	steps := services.Seq(
		services.Compute{MeanMs: 1},
		services.Call{Service: "x", Mode: services.NestedRPC},
		services.Par{Branches: [][]services.Step{
			{services.Compute{MeanMs: 2}},
			{services.Spawn{Service: "y", Class: "c"}},
		}},
	)
	out := computeOnly(steps)
	if len(out) != 2 {
		t.Fatalf("computeOnly = %+v", out)
	}
	for _, st := range out {
		if _, ok := st.(services.Compute); !ok {
			t.Fatalf("non-compute step survived: %T", st)
		}
	}
}

func TestComputeOnlyEmptyHandlerGetsToken(t *testing.T) {
	out := computeOnly(services.Seq(services.Call{Service: "x", Mode: services.MQ}))
	if len(out) != 1 {
		t.Fatalf("out = %+v", out)
	}
	if c, ok := out[0].(services.Compute); !ok || c.MeanMs <= 0 {
		t.Fatalf("placeholder compute missing: %+v", out)
	}
}

func TestProfilerConfigDefaults(t *testing.T) {
	var c ProfilerConfig
	c.defaults()
	if len(c.Factors) == 0 || c.WindowsPerStep != 8 || c.Window != 30*sim.Second || c.Alpha != 0.05 {
		t.Fatalf("defaults = %+v", c)
	}
}
