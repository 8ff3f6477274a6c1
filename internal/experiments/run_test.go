package experiments

import (
	"testing"

	"ursa/internal/metrics"
	"ursa/internal/services"
	"ursa/internal/sim"
)

// TestRecoveryMinutesSketchSafe feeds one hand-built stream — clean minutes,
// an outage of violating minutes, then clean minutes again — into an exact
// and an α=0.01 sketch recorder. Recovery reads only Count and
// PercentileBetween, so both modes must report the same recovery minute.
func TestRecoveryMinutesSketchSafe(t *testing.T) {
	classes := []services.ClassSpec{{Name: "get", SLAPercentile: 99, SLAMillis: 100}}
	exact := metrics.NewLatencyRecorder(sim.Minute)
	sketch := metrics.NewLatencyRecorderSketch(sim.Minute, 0.01)
	for m := 0; m < 10; m++ {
		base := 20.0
		if m >= 3 && m < 6 { // the outage: every window violates
			base = 400
		}
		for i := 0; i < 200; i++ {
			at := sim.Time(m)*sim.Minute + sim.Time(i)*(sim.Minute/200)
			v := base + float64(i%10)
			exact.Record(at, "get", v)
			sketch.Record(at, "get", v)
		}
	}
	failAt := 3*sim.Minute + 20*sim.Second
	end := 10 * sim.Minute
	// Windows 6 and 7 are the first clean pair; recovery is measured from
	// the failure to the start of the first of them.
	want := (6*sim.Minute - failAt).Seconds() / 60
	for name, rec := range map[string]*metrics.LatencyRecorder{"exact": exact, "sketch": sketch} {
		if got := recoveryMinutes(rec, classes, failAt, end); got != want {
			t.Errorf("%s: recovery = %v min, want %v", name, got, want)
		}
		// A run that ends inside the outage never recovers.
		if got := recoveryMinutes(rec, classes, failAt, 6*sim.Minute); got != -1 {
			t.Errorf("%s: recovery inside the outage = %v, want -1", name, got)
		}
	}
}
