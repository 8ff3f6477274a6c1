package core

import (
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/stats"
	"ursa/internal/workload"
)

// ScaleProfilingLoad rescales a per-class offered load so the tested
// service's nominal CPU demand equals target × its per-replica CPU limit.
// The profiling engine (Fig. 3) must drive the service near saturation at
// low CPU limits for the proxy-latency knee — and hence the
// backpressure-free utilisation threshold — to be observable; the class mix
// (fan-in ratios) is preserved.
func ScaleProfilingLoad(ss services.ServiceSpec, rates map[string]float64, target float64) map[string]float64 {
	if target <= 0 {
		target = 0.85
	}
	if ss.CPUs <= 0 {
		ss.CPUs = 1
	}
	demand := 0.0 // core-seconds per second at the given rates
	for class, r := range rates {
		demand += r * nominalCPUMs(&ss, class) / 1e3
	}
	if demand <= 0 {
		return rates
	}
	k := target * ss.CPUs / demand
	out := make(map[string]float64, len(rates))
	for class, r := range rates {
		out[class] = r * k
	}
	return out
}

// computeOnly strips Call and Spawn steps from a handler, keeping only its
// local CPU work — the profiling engine tests the service in isolation, with
// the proxy standing in for its real parents.
func computeOnly(steps []services.Step) []services.Step {
	out := computesIn(steps)
	if len(out) == 0 {
		// A handler that only calls downstream still costs a little CPU.
		out = services.Seq(services.Compute{MeanMs: 0.1})
	}
	return out
}

func computesIn(steps []services.Step) []services.Step {
	var out []services.Step
	for _, st := range steps {
		switch s := st.(type) {
		case services.Compute:
			out = append(out, s)
		case services.Par:
			for _, br := range s.Branches {
				out = append(out, computesIn(br)...)
			}
		}
	}
	return out
}

// ProfilerConfig parameterises backpressure-free threshold profiling (§III).
type ProfilerConfig struct {
	// Factors is the ascending CPU-limit sweep (fraction of nominal CPUs).
	Factors []float64
	// WindowsPerStep is how many measurement windows each limit runs for.
	WindowsPerStep int
	// Window is the measurement window (default 30 s; profiling uses finer
	// windows than deployment so the sweep converges quickly).
	Window sim.Time
	// Alpha is the Welch t-test significance level for declaring the proxy
	// latency converged.
	Alpha float64
	// Seed drives the simulated harness.
	Seed int64
}

func (c *ProfilerConfig) defaults() {
	if len(c.Factors) == 0 {
		for f := 0.3; f <= 2.001; f += 0.1 {
			c.Factors = append(c.Factors, f)
		}
	}
	if c.WindowsPerStep <= 0 {
		c.WindowsPerStep = 8
	}
	if c.Window <= 0 {
		c.Window = 30 * sim.Second
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ProfileStep is one point of the CPU-limit sweep (the Fig. 4 curves).
type ProfileStep struct {
	CPULimit     float64 // cores given to the tested service
	ProxyP99Mean float64 // mean of per-window proxy p99 latency (ms)
	ProxyP99Std  float64
	ServiceP99   float64 // tested service's own p99 (ms)
	Util         float64 // tested service CPU utilisation (0..1)
	Converged    bool    // true from the step where proxy latency converged
}

// BackpressureResult is the §III profiling outcome for one service.
type BackpressureResult struct {
	Service string
	// Threshold is the backpressure-free CPU utilisation threshold: the
	// utilisation observed just before the proxy latency converged.
	Threshold float64
	// Steps are sweep points, lowest CPU limit first: the evaluated suffix
	// of the sweep for ProfileBackpressureThreshold, the whole sweep for
	// ProfileBackpressureCurve.
	Steps []ProfileStep
}

// ProfileBackpressureThreshold runs the 3-tier profiling engine of Fig. 3
// against one service: a proxy forwards the service's class mix via nested
// RPC while the engine sweeps the service's CPU limit and watches the proxy's
// p99 latency with Welch's t-test. The CPU utilisation just before
// convergence is the service's backpressure-free threshold.
//
// The threshold depends only on the top of the sweep, so the sweep runs
// top-down and stops at the first step that has not converged: Steps holds
// only that evaluated suffix of cfg.Factors. ProfileBackpressureCurve runs
// every step (Fig. 4) and reports the same threshold.
//
// classRPS is the per-class offered load (requests/second aggregated over
// upstreams, per §III's fan-in synthesis). Services without an RPC ingress
// stage (MQ consumers) cannot exert backpressure on callers and get
// threshold 1.0 without a sweep.
func ProfileBackpressureThreshold(svc services.ServiceSpec, classRPS map[string]float64, cfg ProfilerConfig) BackpressureResult {
	cfg.defaults()
	if svc.IngressCostMs <= 0 {
		return BackpressureResult{Service: svc.Name, Threshold: 1.0}
	}
	return judgeSweep(svc.Name, len(cfg.Factors), cfg.Alpha, func(k int) profilingStep {
		return runProfilingStep(svc, classRPS, cfg.Factors[k], cfg)
	})
}

// ProfileBackpressureCurve is ProfileBackpressureThreshold over the whole
// sweep: Steps holds every CPU limit of cfg.Factors, lowest first, for the
// Fig. 4 curves. Its Threshold and the Converged marks of the steps it
// shares with the threshold call are identical by construction.
func ProfileBackpressureCurve(svc services.ServiceSpec, classRPS map[string]float64, cfg ProfilerConfig) BackpressureResult {
	cfg.defaults()
	if svc.IngressCostMs <= 0 {
		return BackpressureResult{Service: svc.Name, Threshold: 1.0}
	}
	steps := make([]profilingStep, len(cfg.Factors))
	all := make([]ProfileStep, len(cfg.Factors))
	for k, f := range cfg.Factors {
		steps[k] = runProfilingStep(svc, classRPS, f, cfg)
		all[k] = steps[k].ProfileStep
	}
	res := judgeSweep(svc.Name, len(steps), cfg.Alpha, func(k int) profilingStep { return steps[k] })
	// Steps below the evaluated suffix lie under the first unconverged
	// step, so none of them is converged.
	res.Steps = append(all[:len(all)-len(res.Steps)], res.Steps...)
	return res
}

// judgeSweep is the one convergence judge of both profiling calls. It reads
// the n sweep steps top-down through step(k), calling it once for each k
// from n-1 down to the first step that fails the test, and returns the
// threshold with that evaluated suffix as Steps.
//
// Convergence is judged against the final (highest-limit) step: a step is
// converged when Welch's t-test cannot distinguish its proxy latency from
// the final one *and* its mean is in the final step's range. (Comparing only
// adjacent steps false-positives between two saturated steps, whose enormous
// variances make any means look "equal".) The threshold is the utilisation
// of the lowest evaluated step: the one just below the converged run, or,
// when even the tightest limit converged, the highest utilisation observed.
func judgeSweep(name string, n int, alpha float64, step func(k int) profilingStep) BackpressureResult {
	last := step(n - 1)
	desc := []profilingStep{last} // steps n-1, n-2, … as evaluated
	firstConverged := n - 1
	for k := n - 2; k >= 0; k-- {
		st := step(k)
		desc = append(desc, st)
		same := stats.MeansEqual(st.proxyP99Windows, last.proxyP99Windows, alpha)
		closeMean := st.ProxyP99Mean <= last.ProxyP99Mean*1.3+1e-9
		if same && closeMean {
			firstConverged = k
			continue
		}
		break
	}
	lo := n - len(desc)
	res := BackpressureResult{
		Service:   name,
		Threshold: desc[len(desc)-1].Util,
		Steps:     make([]ProfileStep, len(desc)),
	}
	for i, st := range desc {
		k := n - 1 - i
		st.Converged = k >= firstConverged
		res.Steps[k-lo] = st.ProfileStep
	}
	return res
}

type profilingStep struct {
	ProfileStep
	proxyP99Windows []float64
}

// runProfilingStep runs one independent harness at the given CPU factor.
func runProfilingStep(svc services.ServiceSpec, classRPS map[string]float64, factor float64, cfg ProfilerConfig) profilingStep {
	target := svc
	target.Name = "tested"
	target.InitialReplicas = 1
	target.MaxReplicas = 1
	target.Handlers = map[string][]services.Step{}
	mix := workload.Mix{}
	total := 0.0
	proxyHandlers := map[string][]services.Step{}
	for class, rps := range classRPS {
		if rps <= 0 {
			continue
		}
		src := svc.Handlers[class]
		if src == nil {
			continue
		}
		target.Handlers[class] = computeOnly(src)
		proxyHandlers[class] = services.Seq(
			services.Compute{MeanMs: 0.2},
			services.Call{Service: "tested", Mode: services.NestedRPC},
		)
		mix[class] = rps
		total += rps
	}
	if total <= 0 {
		return profilingStep{ProfileStep: ProfileStep{CPULimit: svc.CPUs * factor}, proxyP99Windows: []float64{0, 0}}
	}

	spec := services.AppSpec{
		Name: "bp-profile-" + svc.Name,
		Services: []services.ServiceSpec{
			{
				Name: "proxy", Threads: 8192, Daemons: 64, CPUs: 8,
				InitialReplicas: 1, IngressCostMs: 0.05, IngressWindow: 4096,
				Handlers: proxyHandlers,
			},
			target,
		},
	}
	for class := range mix {
		spec.Classes = append(spec.Classes, services.ClassSpec{
			Name: class, Entry: "proxy", SLAPercentile: 99, SLAMillis: 1e9,
		})
	}

	eng := sim.NewEngine(cfg.Seed)
	app, err := services.NewAppWith(eng, spec, services.AppOptions{Window: cfg.Window})
	if err != nil {
		panic(err)
	}
	tested := app.Service("tested")
	tested.SetCPUFactor(factor)
	gen := workload.New(eng, app, workload.Constant{Value: total}, mix)
	gen.Start()

	// Warm up one window, then measure.
	warm := cfg.Window
	horizon := warm + sim.Time(cfg.WindowsPerStep)*cfg.Window
	eng.RunUntil(warm)
	busy0, cap0 := tested.CPUAccounting()
	eng.RunUntil(horizon)
	busy1, cap1 := tested.CPUAccounting()
	util := 0.0
	if cap1 > cap0 {
		util = (busy1 - busy0) / (cap1 - cap0)
	}

	// The proxy's latency as its clients see it — including the nested wait
	// on the tested service — is the app's end-to-end latency (the proxy is
	// the entry tier).
	var p99s []float64
	for w := warm; w < horizon; w += cfg.Window {
		var vals []float64
		for class := range mix {
			if rec := app.E2E.Class(class); rec != nil {
				vals = append(vals, rec.Between(w, w+cfg.Window)...)
			}
		}
		p99s = append(p99s, stats.Percentile(vals, 99))
	}
	return profilingStep{
		ProfileStep: ProfileStep{
			CPULimit:     svc.CPUs * factor,
			ProxyP99Mean: stats.Mean(p99s),
			ProxyP99Std:  stats.StdDev(p99s),
			ServiceP99:   tested.RespTime.Merged().PercentileBetween(warm, horizon, 99),
			Util:         util,
		},
		proxyP99Windows: p99s,
	}
}
