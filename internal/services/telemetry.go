package services

import (
	"ursa/internal/metrics"
	"ursa/internal/sim"
)

// TelemetryConfig tunes the app's metrics substrate. The zero value is the
// historical behaviour: exact collectors, unbounded retention — bit-exact
// percentiles with memory O(requests). Production-scale runs set SketchAlpha
// and Retention so memory is O(retained windows) instead.
type TelemetryConfig struct {
	// SketchAlpha, when > 0, backs the latency collectors (E2E and
	// per-service RespTime) with mergeable quantile sketches of that
	// relative-error bound instead of raw samples. Utilisation samples stay
	// exact — they are one value per window already.
	SketchAlpha float64
	// Retention, when > 0, rolls a retention horizon: every sampling tick
	// trims windows older than now−Retention from every collector.
	Retention sim.Time
}

// Telemetry reports the app's telemetry configuration.
func (a *App) Telemetry() TelemetryConfig { return a.telemetry }

// newLatencyRecorder builds a per-class recorder per the telemetry config.
func (a *App) newLatencyRecorder() *metrics.LatencyRecorder {
	if a.telemetry.SketchAlpha > 0 {
		return metrics.NewLatencyRecorderSketch(a.window, a.telemetry.SketchAlpha)
	}
	return metrics.NewLatencyRecorder(a.window)
}

// TrimTelemetry drops telemetry windows older than cutoff across the app:
// E2E, every service's latency collectors, counters, and utilisation
// samples. Managers with longer look-backs than the retention horizon must
// cache their own aggregates.
func (a *App) TrimTelemetry(cutoff sim.Time) {
	a.E2E.Trim(cutoff)
	for _, s := range a.ordered {
		s.RespTime.Trim(cutoff)
		s.UtilSamples.Trim(cutoff)
		s.ArrivalsAll.Trim(cutoff)
		for _, c := range s.Arrivals {
			c.Trim(cutoff)
		}
		s.RPCAttempts.Trim(cutoff)
		s.RPCErrors.Trim(cutoff)
		s.RPCRetries.Trim(cutoff)
	}
}

// TelemetryFootprintBytes estimates retained heap bytes across every
// telemetry collector in the app — the number the bounded-memory tests and
// the ursa-sim memory report watch.
func (a *App) TelemetryFootprintBytes() int {
	b := a.E2E.FootprintBytes()
	for _, s := range a.ordered {
		b += s.RespTime.FootprintBytes()
		b += s.UtilSamples.FootprintBytes()
		b += s.ArrivalsAll.FootprintBytes()
		for _, c := range s.Arrivals {
			b += c.FootprintBytes()
		}
		b += s.RPCAttempts.FootprintBytes()
		b += s.RPCErrors.FootprintBytes()
		b += s.RPCRetries.FootprintBytes()
	}
	return b
}
