package services

import (
	"math"
	"testing"

	"ursa/internal/sim"
)

// runTelemetryApp drives oneTierSpec at a fixed load for the given duration
// under a telemetry config, and returns the app.
func runTelemetryApp(tc TelemetryConfig, minutes int) *App {
	eng := sim.NewEngine(77)
	app, err := NewAppWith(eng, oneTierSpec(2), AppOptions{Telemetry: tc})
	if err != nil {
		panic(err)
	}
	rng := eng.RNG("load")
	var arrive func()
	arrive = func() {
		app.Inject("get")
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/100), arrive) // 100 RPS
	}
	eng.Schedule(0, arrive)
	eng.RunUntil(sim.Time(minutes) * sim.Minute)
	return app
}

// TestTelemetrySketchMatchesExact: a sketch-backed app reports the same
// latency percentiles as an exact-mode app driven by the identical seeded
// run, within the configured relative-error bound (with slack for the
// interpolation the exact path applies between order statistics).
func TestTelemetrySketchMatchesExact(t *testing.T) {
	const alpha = 0.01
	exact := runTelemetryApp(TelemetryConfig{}, 5)
	sk := runTelemetryApp(TelemetryConfig{SketchAlpha: alpha}, 5)
	if !sk.E2E.Class("get").Sketched() || sk.Service("api").RespTime.Merged().Alpha() != alpha {
		t.Fatal("telemetry config did not reach the collectors")
	}
	horizon := 5 * sim.Minute
	if e, g := exact.E2E.Class("get").Count(0, horizon), sk.E2E.Class("get").Count(0, horizon); e != g {
		t.Fatalf("sample counts diverged: exact %d, sketch %d", e, g)
	}
	for _, p := range []float64{50, 90, 99} {
		e := exact.E2E.Class("get").PercentileBetween(0, horizon, p)
		g := sk.E2E.Class("get").PercentileBetween(0, horizon, p)
		if math.Abs(g-e) > 0.03*e+1e-9 {
			t.Fatalf("p%v: sketch %v vs exact %v", p, g, e)
		}
	}
}

// TestTelemetryRetentionBoundsMemory: with a rolling retention horizon the
// telemetry footprint of a longer run stays within a small factor of a
// short run's, while the unbounded exact default keeps growing.
func TestTelemetryRetentionBoundsMemory(t *testing.T) {
	tc := TelemetryConfig{SketchAlpha: 0.01, Retention: 5 * sim.Minute}
	short := runTelemetryApp(tc, 6).TelemetryFootprintBytes()
	long := runTelemetryApp(tc, 24).TelemetryFootprintBytes()
	if long > 2*short {
		t.Fatalf("retained footprint grew with run length: %d -> %d bytes", short, long)
	}

	unboundedShort := runTelemetryApp(TelemetryConfig{}, 6).TelemetryFootprintBytes()
	unboundedLong := runTelemetryApp(TelemetryConfig{}, 24).TelemetryFootprintBytes()
	if unboundedLong < 2*unboundedShort {
		t.Fatalf("exact-mode footprint unexpectedly flat: %d -> %d bytes (test premise broken)",
			unboundedShort, unboundedLong)
	}

	// Retention must actually drop old windows: nothing older than the
	// horizon survives the last trim tick.
	app := runTelemetryApp(tc, 24)
	if n := app.E2E.Class("get").Count(0, 18*sim.Minute); n != 0 {
		t.Fatalf("%d samples retained past the retention horizon", n)
	}
	if n := app.E2E.Class("get").Count(20*sim.Minute, 24*sim.Minute); n == 0 {
		t.Fatal("recent windows were trimmed too")
	}
}
