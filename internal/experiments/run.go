package experiments

import (
	"fmt"

	"ursa/internal/baselines"
	"ursa/internal/cluster"
	"ursa/internal/faults"
	"ursa/internal/metrics"
	"ursa/internal/region"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/trace"
	"ursa/internal/workload"
)

// Scenario is one managed single-app run; Run executes it. Every experiment
// that deploys one app per engine is a grid over Scenarios.
type Scenario struct {
	Seed    int64 // engine seed
	Spec    services.AppSpec
	Mix     workload.Mix
	Pattern workload.Pattern
	Manager baselines.Manager // nil runs the app unmanaged

	// Cluster bounds placement on physical nodes. Regions, when non-empty,
	// deploys on a geo-topology instead; Regions.Spill governs overflow.
	Cluster *cluster.Cluster
	Regions region.Topology
	Fault   Fault

	Resilience *services.ResiliencePolicy // nil = no timeouts or retries
	Telemetry  services.TelemetryConfig
	Tracer     *trace.Tracer

	// The run is measured over [Warm, Warm+Duration).
	Warm, Duration sim.Time
	// Probe, when non-nil, is called once per simulated minute.
	Probe func(app *services.App, now sim.Time)
}

// Fault is an optional outage: the named node of Scenario.Cluster, or every
// node of the named region of Scenario.Regions, fails At and recovers For
// later (0 = never).
type Fault struct {
	Node, Region string
	At, For      sim.Time
}

// ClassRow is one request class's SLA outcome over the measured interval:
// its SLA-percentile latency, and the whole one-minute windows with samples
// (Windows) of which Violated missed the SLA.
type ClassRow struct {
	Class              string
	SLAMillis, Latency float64
	Windows, Violated  int
}

// Result is the outcome of one Run.
type Result struct {
	// App is the deployed app, for measurements beyond the standard ones.
	App     *services.App
	Classes []ClassRow
	// ViolationRate is the per-(class, window) violation fraction (§VII-E).
	ViolationRate, AvgCPUs float64
	// Availability is completed/(completed+failed) jobs over the whole run.
	Availability float64
	// RecoveryMin is minutes from the fault until the SLA was re-established
	// (see recoveryMinutes): 0 without a fault, -1 if it never recovered.
	RecoveryMin     float64
	Retries, Errors float64
	// Evicted counts replicas the fault crash-evicted; Spilled and WANHops
	// are the region map's counters; Backlog is jobs injected but neither
	// completed nor failed when the run ends.
	Evicted, Unschedulable, Spilled, WANHops, Backlog int
	FaultLog                                          []faults.Record
	// DecisionMs is the manager's mean wall-clock decision latency.
	DecisionMs float64
}

// Validate reports a fault whose node or region the scenario lacks.
func (s Scenario) Validate() error {
	f := s.Fault
	switch {
	case f.Node != "" && (s.Cluster == nil || s.Cluster.NodeByName(f.Node) == nil):
		return fmt.Errorf("unknown node %q", f.Node)
	case f.Region != "":
		for _, g := range s.Regions.Groups {
			if g.Name == f.Region {
				return nil
			}
		}
		return fmt.Errorf("unknown region %q", f.Region)
	}
	return nil
}

// Run executes one scenario in a fixed order: deploy, arm the fault, start
// the workload, attach the manager, install the probe, run Warm, then run
// and measure Duration.
func Run(s Scenario) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	eng := sim.NewEngine(s.Seed)
	opts := services.AppOptions{Cluster: s.Cluster, Telemetry: s.Telemetry}
	var m *region.Map
	if !s.Regions.Empty() {
		opts.Cluster = s.Regions.Cluster(cluster.WorstFit)
		var err error
		if m, err = region.New(s.Regions, opts.Cluster); err != nil {
			return Result{}, err
		}
		opts.Placer = m
	}
	app, err := services.NewAppWith(eng, s.Spec, opts)
	if err != nil {
		return Result{}, err
	}
	if m != nil {
		m.Bind(eng, app)
	}
	app.Tracer = s.Tracer
	if s.Resilience != nil {
		app.SetResilience(*s.Resilience)
	}

	res := Result{App: app}
	var in *faults.Injector
	switch f := s.Fault; {
	case f.Node != "":
		in = faults.New(eng, app, opts.Cluster, faults.Schedule{NodeFails: []faults.NodeFail{{Node: f.Node, At: f.At, For: f.For}}})
		in.Start()
	case f.Region != "":
		eng.Schedule(f.At, func() { res.Evicted = m.FailRegion(f.Region) })
		if f.For > 0 {
			eng.Schedule(f.At+f.For, func() { m.RecoverRegion(f.Region) })
		}
	}
	workload.New(eng, app, s.Pattern, s.Mix).Start()
	if s.Manager != nil {
		if err := s.Manager.Attach(app); err != nil {
			return Result{}, err
		}
	}
	if s.Probe != nil {
		eng.Every(sim.Minute, func() { s.Probe(app, eng.Now()) })
	}

	eng.RunUntil(s.Warm)
	alloc0 := app.AllocIntegralCPUSeconds()
	end := s.Warm + s.Duration
	eng.RunUntil(end)
	res.AvgCPUs = avgCPUs(app, alloc0, s.Duration)
	if s.Manager != nil {
		s.Manager.Detach()
		res.DecisionMs = s.Manager.AvgDecisionMillis()
	}

	res.Classes, res.ViolationRate = measureSLA(app, s.Warm, end)
	res.Availability = app.Availability()
	if s.Fault.Node != "" || s.Fault.Region != "" {
		res.RecoveryMin = recoveryMinutes(app.E2E, app.Spec.Classes, s.Fault.At, end)
	}
	for _, name := range app.ServiceNames() {
		svc := app.Service(name)
		res.Retries += svc.RPCRetries.Total(0, end)
		res.Errors += svc.RPCErrors.Total(0, end)
	}
	if in != nil {
		res.Evicted, res.FaultLog = in.Evicted, in.Records
	}
	if m != nil {
		res.Spilled, res.WANHops = m.Spilled, m.WANHops
	}
	res.Unschedulable = app.UnschedulableEvents
	res.Backlog = app.InjectedJobs - app.CompletedJobs() - app.FailedJobs()
	return res, nil
}

// avgCPUs is the mean allocation over the dur ending now, given the
// allocation integral alloc0 at its start.
func avgCPUs(app *services.App, alloc0 float64, dur sim.Time) float64 {
	return (app.AllocIntegralCPUSeconds() - alloc0) / dur.Seconds()
}

// windowSLA reports whether class cs has samples in the one-minute window
// starting at w and, if so, whether its SLA percentile there missed the
// target. It reads only Count and PercentileBetween, which exact and sketch
// telemetry both answer, so every SLA metric scores the two modes alike.
func windowSLA(rec *metrics.Windowed, cs services.ClassSpec, w sim.Time) (sampled, violated bool) {
	if rec == nil || rec.Count(w, w+sim.Minute) == 0 {
		return false, false
	}
	return true, rec.PercentileBetween(w, w+sim.Minute, cs.SLAPercentile) > cs.SLAMillis
}

// measureSLA scores every class over the whole one-minute windows of
// [from, to), returning per-class rows and the per-(class, window) violation
// fraction. A trailing partial window (when the scaled duration is not
// minute-aligned) is dropped rather than counted: its percentile rests on a
// fraction of a window's samples, which would skew the denominator.
func measureSLA(app *services.App, from, to sim.Time) ([]ClassRow, float64) {
	var rows []ClassRow
	total, violated := 0, 0
	for _, cs := range app.Spec.Classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			continue
		}
		row := ClassRow{Class: cs.Name, SLAMillis: cs.SLAMillis, Latency: rec.PercentileBetween(from, to, cs.SLAPercentile)}
		for w := from; w+sim.Minute <= to; w += sim.Minute {
			if sampled, v := windowSLA(rec, cs, w); sampled {
				row.Windows++
				if v {
					row.Violated++
				}
			}
		}
		total += row.Windows
		violated += row.Violated
		rows = append(rows, row)
	}
	if total == 0 {
		return rows, 0
	}
	return rows, float64(violated) / float64(total)
}

// recoveryMinutes measures the time from the failure until the SLA is
// re-established: the start of the first of two consecutive minute-aligned
// windows in which every class with samples meets its SLA (two in a row so a
// single lucky window during the outage does not count as recovery). Returns
// -1 when no such pair exists before the run ends.
func recoveryMinutes(e2e *metrics.LatencyRecorder, classes []services.ClassSpec, failAt, end sim.Time) float64 {
	start := failAt - failAt%sim.Minute
	if start < failAt {
		start += sim.Minute
	}
	clean := 0
	for w := start; w+sim.Minute <= end; w += sim.Minute {
		ok, any := true, false
		for _, cs := range classes {
			sampled, violated := windowSLA(e2e.Class(cs.Name), cs, w)
			any = any || sampled
			ok = ok && !violated
		}
		if ok && any {
			clean++
			if clean == 2 {
				return (w - sim.Minute - failAt).Seconds() / 60
			}
		} else {
			clean = 0
		}
	}
	return -1
}
