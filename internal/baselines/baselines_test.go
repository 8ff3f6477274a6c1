package baselines

import (
	"math"
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

func obsApp(t *testing.T) (*sim.Engine, *services.App) {
	t.Helper()
	return obsAppWith(t, services.TelemetryConfig{})
}

func obsAppWith(t *testing.T, tel services.TelemetryConfig) (*sim.Engine, *services.App) {
	t.Helper()
	eng := sim.NewEngine(1)
	app, err := services.NewAppWith(eng, services.AppSpec{
		Name: "obs",
		Services: []services.ServiceSpec{{
			Name: "api", Threads: 64, CPUs: 2, InitialReplicas: 2,
			Handlers: map[string][]services.Step{
				"get": services.Seq(services.Compute{MeanMs: 5, CV: -1}),
			},
		}},
		Classes: []services.ClassSpec{{Name: "get", Entry: "api", SLAPercentile: 99, SLAMillis: 20}},
	}, services.AppOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	return eng, app
}

func TestObserveBasics(t *testing.T) {
	eng, app := obsApp(t)
	g := workload.New(eng, app, workload.Constant{Value: 100}, workload.Mix{"get": 1})
	g.Start()
	eng.RunUntil(3 * sim.Minute)
	obs := Observe(app, 2*sim.Minute, 3*sim.Minute)
	so, ok := obs.Services["api"]
	if !ok {
		t.Fatal("service missing from observation")
	}
	if so.Replicas != 2 || so.CPUAlloc != 4 {
		t.Fatalf("service obs = %+v", so)
	}
	if math.Abs(so.RPS-100) > 10 {
		t.Fatalf("RPS = %v", so.RPS)
	}
	// util ≈ 100 rps × 5ms / 4 cores = 0.125.
	if math.Abs(so.Util-0.125) > 0.05 {
		t.Fatalf("Util = %v", so.Util)
	}
	if obs.Violated {
		t.Fatal("healthy app reported violated")
	}
	if obs.P99["get"] <= 0 || obs.LatP["get"] <= 0 {
		t.Fatalf("latency missing: %+v", obs)
	}
}

func TestObserveDetectsViolation(t *testing.T) {
	eng, app := obsApp(t)
	g := workload.New(eng, app, workload.Constant{Value: 100}, workload.Mix{"get": 1})
	g.Start()
	app.Service("api").SetCPUFactor(0.05) // 5ms burst → ≥50ms, SLA 20ms
	eng.RunUntil(2 * sim.Minute)
	obs := Observe(app, sim.Minute, 2*sim.Minute)
	if !obs.Violated {
		t.Fatalf("throttled app not flagged: %+v", obs.LatP)
	}
}

func TestServiceNamesSorted(t *testing.T) {
	obs := Observation{Services: map[string]ServiceObs{"b": {}, "a": {}, "c": {}}}
	names := obs.ServiceNamesSorted()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("names = %v", names)
	}
}

// TestObserveSketchMatchesExact pins Observe as telemetry-mode invariant: a
// sketch-backed app must report the same classes as its exact-mode twin,
// with latencies inside the sketch's relative-error band and the same
// violation verdict — healthy and throttled.
func TestObserveSketchMatchesExact(t *testing.T) {
	const alpha = 0.01
	for _, throttle := range []bool{false, true} {
		observe := func(tel services.TelemetryConfig) Observation {
			eng, app := obsAppWith(t, tel)
			workload.New(eng, app, workload.Constant{Value: 100}, workload.Mix{"get": 1}).Start()
			if throttle {
				app.Service("api").SetCPUFactor(0.05)
			}
			eng.RunUntil(3 * sim.Minute)
			return Observe(app, sim.Minute, 3*sim.Minute)
		}
		exact := observe(services.TelemetryConfig{})
		sketch := observe(services.TelemetryConfig{SketchAlpha: alpha})
		if len(sketch.P99) != len(exact.P99) || len(sketch.LatP) != len(exact.LatP) {
			t.Fatalf("throttle=%v: sketch observed %d/%d classes, exact %d/%d",
				throttle, len(sketch.P99), len(sketch.LatP), len(exact.P99), len(exact.LatP))
		}
		for name, pair := range map[string][2]map[string]float64{
			"P99": {exact.P99, sketch.P99}, "LatP": {exact.LatP, sketch.LatP},
		} {
			for class, want := range pair[0] {
				if got := pair[1][class]; math.Abs(got-want) > alpha*want {
					t.Errorf("throttle=%v %s[%s]: sketch %.3f vs exact %.3f, outside the α band",
						throttle, name, class, got, want)
				}
			}
		}
		if sketch.Violated != exact.Violated || exact.Violated != throttle {
			t.Errorf("throttle=%v: Violated sketch=%v exact=%v", throttle, sketch.Violated, exact.Violated)
		}
	}
}
