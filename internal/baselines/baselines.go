// Package baselines provides the competing resource-management systems of
// §VII-B — the Sinan and Firm ML-driven managers (in sub-packages) and the
// two autoscaling configurations — plus the shared application-observation
// utilities they all consume.
package baselines

import (
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/stats"
)

// Manager is the minimal contract every resource manager implements so the
// evaluation harness can drive them interchangeably.
type Manager interface {
	// Name identifies the system ("ursa", "sinan", "firm", "auto-a", ...).
	Name() string
	// Attach starts the manager's control loop on a running app. It fails
	// when the manager cannot deploy there (Ursa: no feasible model solve).
	Attach(app *services.App) error
	// Detach stops the control loop.
	Detach()
	// AvgDecisionMillis reports the mean wall-clock latency of one control
	// decision (Table VI).
	AvgDecisionMillis() float64
}

// ServiceObs is one service's state during one window.
type ServiceObs struct {
	Replicas int
	CPUAlloc float64
	Util     float64
	RPS      float64
}

// Observation is an application-wide snapshot over one metrics window.
type Observation struct {
	Services map[string]ServiceObs
	// P99 maps class → 99th percentile end-to-end latency in the window
	// (0 when idle); LatP maps class → latency at the class's own SLA
	// percentile.
	P99  map[string]float64
	LatP map[string]float64
	// Violated reports whether any class broke its SLA in the window.
	Violated bool
}

// Observe snapshots the app over [from, to).
func Observe(app *services.App, from, to sim.Time) Observation {
	obs := Observation{
		Services: map[string]ServiceObs{},
		P99:      map[string]float64{},
		LatP:     map[string]float64{},
	}
	for _, name := range app.ServiceNames() {
		svc := app.Service(name)
		utils := svc.UtilSamples.Between(from, to)
		obs.Services[name] = ServiceObs{
			Replicas: svc.Replicas(),
			CPUAlloc: svc.AllocatedCPUs(),
			Util:     stats.Mean(utils),
			RPS:      svc.ArrivalsAll.Rate(from, to),
		}
	}
	for _, cs := range app.Spec.Classes {
		// Count and PercentileBetween answer in both telemetry modes; raw
		// samples (Between) do not exist under sketch telemetry.
		rec := app.E2E.Class(cs.Name)
		if rec == nil || rec.Count(from, to) == 0 {
			continue
		}
		obs.P99[cs.Name] = rec.PercentileBetween(from, to, 99)
		lp := rec.PercentileBetween(from, to, cs.SLAPercentile)
		obs.LatP[cs.Name] = lp
		if lp > cs.SLAMillis {
			obs.Violated = true
		}
	}
	return obs
}
