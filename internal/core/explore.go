package core

import (
	"fmt"
	"runtime"

	"ursa/internal/fanout"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/stats"
	"ursa/internal/workload"
)

// ExploreConfig parameterises the allocation-space exploration (Algorithm 1).
type ExploreConfig struct {
	// WindowsPerPoint is how many sampling windows each LPR point collects
	// (the paper collects 10 samples per iteration).
	WindowsPerPoint int
	// Window is the sampling window (once per minute in the paper).
	Window sim.Time
	// SLAViolationFreq F_sla terminates exploration when exceeded (0.10).
	SLAViolationFreq float64
	// Step is the replica reduction per iteration.
	Step int
	// WarmupWindows are discarded before sampling starts.
	WarmupWindows int
	// UtilTarget sizes the initial generous provisioning of every service
	// ("adequate CPUs to keep the microservice's latency low").
	UtilTarget float64
	// Seed drives the exploration run.
	Seed int64
}

func (c *ExploreConfig) defaults() {
	if c.WindowsPerPoint <= 0 {
		c.WindowsPerPoint = 10
	}
	if c.Window <= 0 {
		c.Window = sim.Minute
	}
	if c.SLAViolationFreq <= 0 {
		c.SLAViolationFreq = 0.10
	}
	if c.Step <= 0 {
		c.Step = 1
	}
	if c.WarmupWindows <= 0 {
		c.WarmupWindows = 1
	}
	if c.UtilTarget <= 0 {
		c.UtilTarget = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Explorer runs per-service LPR exploration for one application and
// workload (the exploration controller of §V.2).
type Explorer struct {
	Spec services.AppSpec
	Mix  workload.Mix
	// TotalRPS is the replayed workload's aggregate request rate.
	TotalRPS float64
	// Thresholds maps service → backpressure-free CPU utilisation
	// threshold (§III); missing entries default to 1.0.
	Thresholds map[string]float64
}

// EntryRates reports the per-class injection rates of the replayed trace.
func (e *Explorer) EntryRates() map[string]float64 {
	out := map[string]float64{}
	for _, class := range e.Spec.EntryClasses() {
		out[class] = e.TotalRPS * e.Mix.Fraction(class)
	}
	return out
}

// ServiceClassLoads estimates each service's per-class arrival rate from
// the class paths and the replayed trace rates. Derived classes inherit the
// injection rate of the flows that spawn them.
func (e *Explorer) ServiceClassLoads() map[string]map[string]float64 {
	rates := e.classRates()
	out := map[string]map[string]float64{}
	for class, rate := range rates {
		for _, v := range ClassPath(&e.Spec, class) {
			m := out[v.Service]
			if m == nil {
				m = map[string]float64{}
				out[v.Service] = m
			}
			m[v.Class] += rate * float64(v.Count)
		}
	}
	return out
}

// classRates reports the effective injection rate per class, including
// derived classes (each Spawn of class c at rate r contributes r to c).
func (e *Explorer) classRates() map[string]float64 {
	rates := e.EntryRates()
	// Propagate spawn rates: walk each entry class's path once, counting
	// Spawn steps (including those reached through Calls).
	type item struct {
		class string
		rate  float64
	}
	queue := []item{}
	for c, r := range rates {
		queue = append(queue, item{c, r})
	}
	for guard := 0; len(queue) > 0; guard++ {
		if guard > 10000 {
			panic("core: spawn graph appears cyclic")
		}
		it := queue[0]
		queue = queue[1:]
		for _, v := range ClassPath(&e.Spec, it.class) {
			ss := e.Spec.ServiceSpecByName(v.Service)
			if ss == nil {
				continue
			}
			for _, sp := range spawnsIn(ss.Handlers[v.Class]) {
				add := it.rate * float64(v.Count)
				rates[sp.Class] += add
				queue = append(queue, item{sp.Class, add})
			}
		}
	}
	return rates
}

func spawnsIn(steps []services.Step) []services.Spawn {
	var out []services.Spawn
	for _, st := range steps {
		switch s := st.(type) {
		case services.Spawn:
			out = append(out, s)
		case services.Par:
			for _, br := range s.Branches {
				out = append(out, spawnsIn(br)...)
			}
		}
	}
	return out
}

// nominalCPUMs sums the mean CPU cost (ms) of a handler, including the
// ingress cost for RPC services.
func nominalCPUMs(ss *services.ServiceSpec, class string) float64 {
	var walk func(steps []services.Step) float64
	walk = func(steps []services.Step) float64 {
		t := 0.0
		for _, st := range steps {
			switch s := st.(type) {
			case services.Compute:
				t += s.MeanMs
			case services.Par:
				for _, br := range s.Branches {
					t += walk(br)
				}
			}
		}
		return t
	}
	return walk(ss.Handlers[class]) + ss.IngressCostMs
}

// GenerousReplicas computes, for every service, a replica count that keeps
// CPU utilisation near cfg.UtilTarget under the replayed trace.
func (e *Explorer) GenerousReplicas(utilTarget float64) map[string]int {
	loads := e.ServiceClassLoads()
	out := map[string]int{}
	for i := range e.Spec.Services {
		ss := &e.Spec.Services[i]
		demand := 0.0 // core-seconds per second
		for class, rate := range loads[ss.Name] {
			demand += rate * nominalCPUMs(ss, class) / 1e3
		}
		n := int(demand/(ss.CPUs*utilTarget)) + 1
		if n < ss.InitialReplicas {
			n = ss.InitialReplicas
		}
		out[ss.Name] = n
	}
	return out
}

// ExploreService runs Algorithm 1 for one service on a fresh deployment of
// the application: every other service is generously provisioned, the
// workload trace is replayed, and the target's replicas are reduced step by
// step while recording latency distributions per LPR — terminating as soon
// as the CPU utilisation reaches the backpressure-free threshold or the SLA
// violation frequency reaches F_sla.
func (e *Explorer) ExploreService(name string, cfg ExploreConfig) (*Profile, error) {
	cfg.defaults()
	target := e.Spec.ServiceSpecByName(name)
	if target == nil {
		return nil, fmt.Errorf("core: unknown service %q", name)
	}
	generous := e.GenerousReplicas(cfg.UtilTarget)

	spec := e.Spec
	spec.Services = append([]services.ServiceSpec(nil), e.Spec.Services...)
	for i := range spec.Services {
		spec.Services[i].InitialReplicas = generous[spec.Services[i].Name]
		spec.Services[i].MaxReplicas = 0
	}
	eng := sim.NewEngine(cfg.Seed)
	app, err := services.NewAppWith(eng, spec, services.AppOptions{Window: cfg.Window})
	if err != nil {
		return nil, err
	}
	gen := workload.New(eng, app, workload.Constant{Value: e.TotalRPS}, e.Mix)
	gen.Start()
	eng.RunUntil(sim.Time(cfg.WarmupWindows) * cfg.Window)

	svc := app.Service(name)
	bpThreshold := 1.0
	if t, ok := e.Thresholds[name]; ok && t > 0 {
		bpThreshold = t
	}
	slaClasses := e.classesThrough(name)

	profile := &Profile{
		Service:          name,
		CPUsPerReplica:   target.CPUs,
		BackpressureUtil: bpThreshold,
	}
	r := generous[name]
	for r >= 1 {
		svc.SetReplicas(r)
		start := eng.Now()
		busy0, cap0 := svc.CPUAccounting()
		eng.RunFor(sim.Time(cfg.WindowsPerPoint) * cfg.Window)
		end := eng.Now()
		busy1, cap1 := svc.CPUAccounting()
		profile.Samples += cfg.WindowsPerPoint
		profile.ExploreTime += end - start

		util := 0.0
		if cap1 > cap0 {
			util = (busy1 - busy0) / (cap1 - cap0)
		}
		fsla := e.slaViolationFreq(app, slaClasses, start, end, cfg.Window)
		if util >= bpThreshold || fsla >= cfg.SLAViolationFreq {
			break // Algorithm 1: terminate without recording this point
		}

		point := LPRPoint{
			Replicas:    r,
			LPR:         map[string]float64{},
			RateSamples: map[string][]float64{},
			Latency:     map[string][]float64{},
			Util:        util,
		}
		for class, cs := range svc.Arrivals {
			var rateSamples []float64
			for w := start; w < end; w += cfg.Window {
				rateSamples = append(rateSamples, cs.Rate(w, w+cfg.Window)/float64(r))
			}
			mean := stats.Mean(rateSamples)
			if mean <= 0 {
				continue
			}
			point.LPR[class] = mean
			point.RateSamples[class] = rateSamples
			if rec := svc.RespTime.Class(class); rec != nil {
				point.Latency[class] = append([]float64(nil), rec.Between(start, end)...)
			}
		}
		if len(point.LPR) > 0 {
			profile.Points = append(profile.Points, point)
		}
		r -= cfg.Step
	}
	profile.SortPoints()
	if len(profile.Points) == 0 {
		return profile, fmt.Errorf("core: exploration of %q recorded no feasible LPR point", name)
	}
	// Build the percentile tables now, off the decision path: the first
	// Solve over this profile reads cached rows instead of sorting sample
	// sets while the control plane waits.
	profile.Precompute()
	return profile, nil
}

// classesThrough lists classes whose path visits the service.
func (e *Explorer) classesThrough(name string) []services.ClassSpec {
	var out []services.ClassSpec
	for _, cs := range e.Spec.Classes {
		for _, v := range ClassPath(&e.Spec, cs.Name) {
			if v.Service == name {
				out = append(out, cs)
				break
			}
		}
	}
	return out
}

// slaViolationFreq reports the fraction of windows in [start, end) where any
// relevant class's end-to-end percentile exceeded its SLA. A per-window
// percentile is only meaningful with enough samples — estimating a p99 from
// 50 requests reads the maximum order statistic and fires spuriously — so
// classes whose windows are too thin are judged once on the pooled interval
// instead (violated → every window counts as violated).
func (e *Explorer) slaViolationFreq(app *services.App, classes []services.ClassSpec, start, end sim.Time, window sim.Time) float64 {
	total := 0
	for w := start; w < end; w += window {
		total++
	}
	if total == 0 {
		return 0
	}
	violatedWindows := map[sim.Time]bool{}
	for _, cs := range classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			continue
		}
		minSamples := minSamplesForPercentile(cs.SLAPercentile)
		pooled := false
		for w := start; w < end; w += window {
			if rec.Count(w, w+window) < minSamples {
				pooled = true
				break
			}
		}
		if pooled {
			if rec.Count(start, end) >= minSamples &&
				rec.PercentileBetween(start, end, cs.SLAPercentile) > cs.SLAMillis {
				for w := start; w < end; w += window {
					violatedWindows[w] = true
				}
			}
			continue
		}
		for w := start; w < end; w += window {
			if rec.PercentileBetween(w, w+window, cs.SLAPercentile) > cs.SLAMillis {
				violatedWindows[w] = true
			}
		}
	}
	return float64(len(violatedWindows)) / float64(total)
}

// minSamplesForPercentile is the smallest sample count at which the p-th
// percentile is estimated from ≥3 tail observations.
func minSamplesForPercentile(p float64) int {
	tail := (100 - p) / 100
	if tail <= 0 {
		return 1 << 30
	}
	n := int(3/tail + 0.5)
	if n < 20 {
		n = 20
	}
	return n
}

// ExplorationSummary aggregates a full-application exploration (Table V).
type ExplorationSummary struct {
	Samples int
	// WallTime is the end-to-end exploration time: services are explored
	// in parallel, so it is the maximum per-service time.
	WallTime sim.Time
	// TotalTime is the sum of per-service exploration times.
	TotalTime sim.Time
}

// ExploreAll explores every service and returns the per-service profiles
// plus the Table V accounting. Each service's exploration is an independent
// deployment, so they run in parallel on GOMAXPROCS workers, as the paper
// explores them; the results are merged in service order, so the output
// does not depend on the worker count.
func (e *Explorer) ExploreAll(cfg ExploreConfig) (map[string]*Profile, ExplorationSummary, error) {
	return e.exploreAll(cfg, runtime.GOMAXPROCS(0))
}

func (e *Explorer) exploreAll(cfg ExploreConfig, workers int) (map[string]*Profile, ExplorationSummary, error) {
	cfg.defaults()
	var sum ExplorationSummary
	explored := make([]*Profile, len(e.Spec.Services))
	err := fanout.ForEachErr(workers, len(explored), func(i int) error {
		name := e.Spec.Services[i].Name
		p, err := e.ExploreService(name, cfg)
		if err != nil {
			return fmt.Errorf("exploring %s: %w", name, err)
		}
		explored[i] = p
		return nil
	})
	if err != nil {
		return nil, sum, err
	}
	profiles := make(map[string]*Profile, len(explored))
	for _, p := range explored {
		profiles[p.Service] = p
		sum.Samples += p.Samples
		sum.TotalTime += p.ExploreTime
		if p.ExploreTime > sum.WallTime {
			sum.WallTime = p.ExploreTime
		}
	}
	return profiles, sum, nil
}
