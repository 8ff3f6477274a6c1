package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/experiments"
	"ursa/internal/region"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// warm is every scenario's warm-up: simulated before the measured SLA and
// allocation window opens, but still part of the timed run phase.
const warm = 2 * sim.Minute

// fleet-256x8 deploys the first fleetTenants tenants of the generated fleet
// with seed fleetSeed, and every one must be admitted. The fleet is the
// workload's fixed input, like the social network's topology; with the
// fixed exploration below, fleet seed 1 yields a tenant whose SLA no
// explored allocation meets, and seed 3 is the first whose eight all admit.
const (
	fleetSeed    = 3
	fleetTenants = 8
)

// A scenario is one benchmark workload: how Ursa and its load are assembled
// from public APIs, and how long the managed run lasts after warm-up.
type scenario struct {
	name   string
	dur    sim.Time
	deploy func(r *runner) error
}

// scenarios lists the workloads in their canonical order. Each stresses a
// different mix of layers; BENCHMARK.json says why each was chosen and
// README.md which metric each layer should move.
var scenarios = []scenario{
	{"social-10x", 30 * sim.Minute, deploySocial10x},
	{"social-surge", 30 * sim.Minute, deploySocialSurge},
	{"region-failover", 30 * sim.Minute, deployRegionFailover},
	{"fleet-256x8", 40 * sim.Minute, deployFleet},
}

func scenarioByName(name string) (scenario, bool) {
	for _, s := range scenarios {
		if s.name == name {
			return s, true
		}
	}
	return scenario{}, false
}

// runner holds one run's assembled deployment and what it measures. All of
// it lives on the single simulation goroutine.
type runner struct {
	seed int64
	dur  sim.Time
	tr   *recorder // nil on untraced runs

	eng     *sim.Engine
	apps    []*services.App
	mgrs    []*core.Manager
	gens    []*workload.Generator
	regions *region.Map
	failAt  sim.Time // region failure time; 0 when nothing fails
	evicted int

	// Per-minute samples of the run phase.
	minuteMs        []float64
	tickUs, solveUs []float64
	marks           []decisionMark
	pendingMax      int
	allocAtWarm     []float64

	placeFailures int
}

// socialCase is the built-in social network with its nominal 100 RPS rate
// and mix, which every social workload scales.
func socialCase() (experiments.AppCase, error) {
	c, ok := experiments.AppCaseByName("social-network")
	if !ok {
		return c, fmt.Errorf("app case social-network missing")
	}
	return c, nil
}

// Ursa's exploration is part of the system under test, not of its input, so
// it runs with a fixed seed while -seed varies the simulated world: arrivals,
// service times and synthetic node capacities. exploreScale halves the
// harness's exploration sample counts (5 windows per explored point, 4 per
// profiling step): the same code paths at about 5 s of setup per app.
const (
	exploreSeed  = 1
	exploreScale = 0.5
)

// explore runs backpressure profiling and LPR exploration for an app case —
// the setup cost a user pays before deploying.
func (r *runner) explore(c experiments.AppCase) map[string]*core.Profile {
	id := r.tr.start("experiments.ursa_profiles")
	opts := experiments.Options{Seed: exploreSeed, Scale: exploreScale}
	_, profiles, _ := opts.UrsaProfiles(c)
	r.tr.end(id)
	return profiles
}

// manage attaches a fresh Ursa manager to a deployed app, after its load
// generator has started (the harness's order).
func (r *runner) manage(app *services.App, c experiments.AppCase, profiles map[string]*core.Profile, rps float64) error {
	mgr := core.NewManager(c.Spec, profiles)
	id := r.tr.start("core.admit")
	err := mgr.Run(app, c.Mix, rps, core.ControllerConfig{}, core.AnomalyConfig{})
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("deploy %s: %w", c.Name, err)
	}
	r.addManaged(app, mgr)
	return nil
}

func (r *runner) addManaged(app *services.App, mgr *core.Manager) {
	r.apps = append(r.apps, app)
	r.mgrs = append(r.mgrs, mgr)
	r.instrument(app, mgr)
}

func (r *runner) startLoad(app *services.App, p workload.Pattern, mix workload.Mix) {
	g := workload.New(r.eng, app, p, mix)
	g.Start()
	r.gens = append(r.gens, g)
}

// deploySocial10x deploys the social network without a cluster at 10x its
// nominal rate, constant load.
func deploySocial10x(r *runner) error {
	c, err := socialCase()
	if err != nil {
		return err
	}
	profiles := r.explore(c)
	r.eng = sim.NewEngine(r.seed + 1000)
	id := r.tr.start("services.deploy")
	app, err := services.NewApp(r.eng, c.Spec)
	r.tr.end(id)
	if err != nil {
		return err
	}
	rps := 10 * c.TotalRPS
	r.startLoad(app, workload.Constant{Value: rps}, c.Mix)
	return r.manage(app, c, profiles, rps)
}

// window is a load pattern that is on at a fixed rate during [from, to).
type window struct {
	from, to sim.Time
	rps      float64
}

func (w window) RPS(t sim.Time) float64 {
	if t >= w.from && t < w.to {
		return w.rps
	}
	return 0
}

// deploySocialSurge deploys the social network on 64 synthetic nodes under a
// diurnal 5x-15x load with an upload-post surge.
func deploySocialSurge(r *runner) error {
	c, err := socialCase()
	if err != nil {
		return err
	}
	profiles := r.explore(c)
	r.eng = sim.NewEngine(r.seed + 1000)
	id := r.tr.start("services.deploy")
	app, err := services.NewAppOnCluster(r.eng, c.Spec, cluster.Synthetic(cluster.WorstFit, 64, r.seed))
	r.tr.end(id)
	if err != nil {
		return err
	}
	// One diurnal period over the measured window: 5x at warm-up's end,
	// 15x at mid-run, back to 5x at the end.
	diurnal := workload.Diurnal{Base: 5 * c.TotalRPS, Peak: 15 * c.TotalRPS, Period: r.dur}
	r.startLoad(app, workload.Shift{Inner: diurnal, Offset: r.dur - warm}, c.Mix)
	// A second generator surges upload-post to 6x its share of the 10x rate,
	// shifting the class mix so the anomaly detector re-solves.
	from := warm + r.dur/2
	surge := window{from: from, to: from + r.dur/5, rps: 6 * 10 * c.TotalRPS * c.Mix.Fraction("upload-post")}
	r.startLoad(app, surge, workload.Mix{"upload-post": 1})
	return r.manage(app, c, profiles, 10*c.TotalRPS)
}

// deployRegionFailover deploys the social network over Fig. R1's three
// regions, spill on, at 4x load; eu-west fails a third of the way in and
// recovers a quarter-run later.
func deployRegionFailover(r *runner) error {
	c, err := socialCase()
	if err != nil {
		return err
	}
	profiles := r.explore(c)
	r.eng = sim.NewEngine(r.seed + 1000)
	id := r.tr.start("services.deploy")
	app, m, err := region.Deploy(r.eng, c.Spec, experiments.SocialNetworkRegions(), cluster.WorstFit, true)
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.regions = m
	// Fig. F1's client policy: 500 ms timeout, 3 retries, jittered backoff.
	app.SetResilience(services.ResiliencePolicy{
		TimeoutMs: 500, MaxRetries: 3, BackoffBaseMs: 20, BackoffMaxMs: 500, JitterFrac: 0.25,
	})
	const failed = "eu-west"
	r.failAt = warm + r.dur/3
	r.eng.Schedule(r.failAt, func() { r.evicted = m.FailRegion(failed) })
	r.eng.Schedule(r.failAt+r.dur/4, func() { m.RecoverRegion(failed) })
	rps := 4 * c.TotalRPS
	r.startLoad(app, workload.Constant{Value: rps}, c.Mix)
	return r.manage(app, c, profiles, rps)
}

// deployFleet explores eight generated tenants and admits each through the
// arbiter of a 256-node synthetic cluster, with the refresh loop on. Any
// rejected tenant fails the setup.
func deployFleet(r *runner) error {
	cases := make([]experiments.AppCase, fleetTenants)
	profiles := make([]map[string]*core.Profile, fleetTenants)
	for i := range cases {
		c, err := experiments.GenerateFleetCase(fleetSeed, i)
		if err != nil {
			return fmt.Errorf("fleet tenant %d: %w", i, err)
		}
		cases[i] = c
		profiles[i] = r.explore(c)
	}
	r.eng = sim.NewEngine(r.seed + 2000)
	arb := core.NewArbiter(r.eng, cluster.Synthetic(cluster.WorstFit, 256, r.seed))
	for i, c := range cases {
		id := r.tr.start("core.admit")
		ten, err := arb.Admit(core.TenantSpec{
			Name: c.Name, Spec: c.Spec, Profiles: profiles[i], Mix: c.Mix, TotalRPS: c.TotalRPS,
		})
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("fleet tenant %d: %w", i, err)
		}
		r.startLoad(ten.App, workload.Constant{Value: ten.TotalRPS}, ten.Mix)
		r.addManaged(ten.App, ten.Manager)
	}
	arb.StartRefresh(0)
	return nil
}

// decisionMark is a manager's cumulative decision accounting at one instant.
type decisionMark struct {
	ticks, solves int
	tickS, solveS float64
}

func markOf(m *core.Manager) decisionMark {
	d := decisionMark{solves: m.OptimizeCount, solveS: m.OptimizeSeconds}
	if m.Controller != nil {
		d.ticks, d.tickS = m.Controller.DecisionCount, m.Controller.DecisionSeconds
	}
	return d
}

// appendPerDecision adds n samples of the mean latency of n decisions that
// took sec seconds together, in µs.
func appendPerDecision(dst []float64, n int, sec float64) []float64 {
	for k := 0; k < n; k++ {
		dst = append(dst, sec/float64(n)*1e6)
	}
	return dst
}

// sampleDecisions turns the managers' cumulative decision counters into
// per-decision latency samples for everything decided since the last call.
func (r *runner) sampleDecisions() {
	for len(r.marks) < len(r.mgrs) {
		r.marks = append(r.marks, decisionMark{})
	}
	for i, m := range r.mgrs {
		cur, prev := markOf(m), r.marks[i]
		r.tickUs = appendPerDecision(r.tickUs, cur.ticks-prev.ticks, cur.tickS-prev.tickS)
		r.solveUs = appendPerDecision(r.solveUs, cur.solves-prev.solves, cur.solveS-prev.solveS)
		r.marks[i] = cur
	}
}

// readRuntime returns the live heap after the last GC and the cumulative
// count of heap objects allocated.
func readRuntime() (liveBytes, allocObjects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runPhase advances the engine one simulated minute per RunUntil call —
// boundary-exact, so the simulated outcome equals one RunUntil to the end —
// and samples queue depth and decision latency after each minute.
func (r *runner) runPhase() {
	r.sampleDecisions()
	end := warm + r.dur
	for t := sim.Minute; t <= end; t += sim.Minute {
		id := r.tr.start("sim.minute")
		t0 := time.Now()
		r.eng.RunUntil(t)
		r.minuteMs = append(r.minuteMs, float64(time.Since(t0).Nanoseconds())/1e6)
		r.tr.end(id)

		r.sampleDecisions()
		if p := r.eng.Pending(); p > r.pendingMax {
			r.pendingMax = p
		}
		if t == warm {
			for _, app := range r.apps {
				r.allocAtWarm = append(r.allocAtWarm, app.AllocIntegralCPUSeconds())
			}
		}
	}
}

// classWindows reports, per SLA class of app, one flag per whole minute of
// [from, to): '1' violated, '0' met, '-' no samples. It is the harness's
// whole-window violation rule, read only through Count and PercentileBetween
// so it answers identically in exact and sketch telemetry modes.
func (r *runner) classWindows(app *services.App, from, to sim.Time) map[string][]byte {
	out := map[string][]byte{}
	for _, cs := range app.Spec.Classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			continue
		}
		var flags []byte
		for w := from; w+sim.Minute <= to; w += sim.Minute {
			if rec.Count(w, w+sim.Minute) == 0 {
				flags = append(flags, '-')
				continue
			}
			id := r.tr.start("metrics.query")
			p := rec.PercentileBetween(w, w+sim.Minute, cs.SLAPercentile)
			r.tr.end(id)
			if p > cs.SLAMillis {
				flags = append(flags, '1')
			} else {
				flags = append(flags, '0')
			}
		}
		out[cs.Name] = flags
	}
	return out
}

// violationPct is the share of (class, minute) windows with samples whose
// SLA percentile was violated.
func violationPct(windows map[string][]byte) float64 {
	total, violated := 0, 0
	for _, flags := range windows {
		for _, f := range flags {
			if f != '-' {
				total++
			}
			if f == '1' {
				violated++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(violated) / float64(total)
}

// recoveryMinutes is Fig. F1's recovery rule on the windows classWindows
// reports: minutes from the failure to the first of two consecutive minutes
// in which every class with samples met its SLA, or -1 if that never happens.
func recoveryMinutes(windows map[string][]byte, from, failAt sim.Time) float64 {
	start := (failAt + sim.Minute - 1) / sim.Minute * sim.Minute
	n := 0
	for _, flags := range windows {
		n = len(flags)
		break
	}
	clean := 0
	for i := 0; i < n; i++ {
		w := from + sim.Time(i)*sim.Minute
		if w < start {
			continue
		}
		ok, any := true, false
		for _, flags := range windows {
			switch flags[i] {
			case '1':
				ok, any = false, true
			case '0':
				any = true
			}
		}
		if !ok || !any {
			clean = 0
			continue
		}
		if clean++; clean == 2 {
			return (w - sim.Minute - failAt).Seconds() / 60
		}
	}
	return -1
}

// runResult is one child run: its simulated digest, any failed checks, and
// every metric it measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	SetupOnly bool               `json:"setup_only,omitempty"`
	Digest    string             `json:"digest"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (res *runResult) failf(format string, args ...any) {
	res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
}

// runConfig selects what one run does beyond assembling its scenario.
type runConfig struct {
	dur       sim.Time  // overrides the scenario's length when positive
	traceDir  string    // non-empty: trace the run, writing profiles and spans here
	setupOnly bool      // stop after setup, reporting only setup_s
	log       io.Writer // receives a traced run's span self-time table
}

// runScenario assembles and runs one scenario in this process. A traced run
// records setup and run-phase CPU profiles and the benchmark's spans.
func runScenario(sc scenario, seed int64, cfg runConfig) (res runResult) {
	res = runResult{Workload: sc.name, Seed: seed, Traced: cfg.traceDir != "", SetupOnly: cfg.setupOnly,
		Metrics: map[string]float64{}}
	defer func() {
		if p := recover(); p != nil {
			pprof.StopCPUProfile()
			res.failf("panic: %v", p)
		}
	}()
	r := &runner{seed: seed, dur: sc.dur}
	if cfg.dur > 0 {
		r.dur = cfg.dur
	}
	var prof *profiler
	if res.Traced {
		r.tr = newRecorder()
		prof = &profiler{dir: cfg.traceDir, workload: sc.name}
	}

	setupStart := time.Now()
	if err := prof.start("setup"); err != nil {
		res.failf("setup profile: %v", err)
		return res
	}
	root := r.tr.start("bench.setup")
	err := sc.deploy(r)
	r.tr.end(root)
	res.Metrics["setup_s"] = time.Since(setupStart).Seconds()
	if perr := prof.stop(res.Metrics); perr != nil {
		res.failf("setup profile: %v", perr)
	}
	if err != nil {
		res.failf("setup: %v", err)
		return res
	}
	if cfg.setupOnly {
		return res
	}

	_, allocs0 := readRuntime()
	events0 := r.eng.Fired()
	if err := prof.start("run"); err != nil {
		res.failf("run profile: %v", err)
		return res
	}
	root = r.tr.start("bench.run")
	runStart := time.Now()
	r.runPhase()
	runSec := time.Since(runStart).Seconds()
	r.tr.end(root)
	_, allocs1 := readRuntime()
	if err := prof.stop(res.Metrics); err != nil {
		res.failf("run profile: %v", err)
	}
	// The live heap grows through every run, as telemetry windows
	// accumulate, so it peaks at the end. A full collection there measures
	// it exactly; samples taken after the concurrent collector's cycles
	// include floating garbage and swing by ±5% run to run.
	runtime.GC()
	live, _ := readRuntime()
	res.Metrics["peak_live_heap_mb"] = float64(live) / (1 << 20)

	root = r.tr.start("bench.measure")
	r.measure(&res, runSec, allocs1-allocs0, r.eng.Fired()-events0)
	r.tr.end(root)
	if r.tr != nil {
		r.tr.report(res.Metrics)
		if err := r.tr.write(cfg.traceDir, sc.name, cfg.log); err != nil {
			res.failf("write spans: %v", err)
		}
	}
	return res
}

// measure derives the run's metrics, checks and simulated digest.
func (r *runner) measure(res *runResult, runSec float64, allocs, events uint64) {
	m := res.Metrics
	end := warm + r.dur
	d := sha256.New()
	var injected, completed, failed, genInjected, unsched int
	var allocCPUs, violSum, retries, rpcErrors float64
	var ticks, solves, fast int
	for i, app := range r.apps {
		windows := r.classWindows(app, warm, end)
		violSum += violationPct(windows)
		if r.failAt > 0 {
			m["recovery_min"] = recoveryMinutes(windows, warm, r.failAt)
		}
		alloc := app.AllocIntegralCPUSeconds()
		allocCPUs += (alloc - r.allocAtWarm[i]) / r.dur.Seconds()

		e2eCount := 0
		for _, class := range app.E2E.Classes() {
			e2eCount += app.E2E.Class(class).Count(0, math.MaxInt64)
		}
		inj, done, fail := app.InjectedJobs, app.CompletedJobs(), app.FailedJobs()
		if done+fail > inj {
			res.failf("%s: %d completed + %d failed jobs exceed %d injected", app.Spec.Name, done, fail, inj)
		}
		if e2eCount != done {
			res.failf("%s: %d end-to-end latency samples for %d completed jobs", app.Spec.Name, e2eCount, done)
		}
		injected, completed, failed = injected+inj, completed+done, failed+fail
		unsched += app.UnschedulableEvents
		for _, name := range app.ServiceNames() {
			svc := app.Service(name)
			retries += svc.RPCRetries.Total(0, math.MaxInt64)
			rpcErrors += svc.RPCErrors.Total(0, math.MaxInt64)
		}
		mk := markOf(r.mgrs[i])
		ticks, solves, fast = ticks+mk.ticks, solves+mk.solves, fast+r.mgrs[i].FastResolveCount

		fmt.Fprintf(d, "app %s injected %d completed %d failed %d unsched %d alloc %x\n",
			app.Spec.Name, inj, done, fail, app.UnschedulableEvents, math.Float64bits(alloc))
		fmt.Fprintf(d, "decisions ticks %d solves %d fast %d\n", mk.ticks, mk.solves, r.mgrs[i].FastResolveCount)
		for _, class := range sortedKeys(windows) {
			fmt.Fprintf(d, "class %s %s\n", class, windows[class])
		}
	}
	for _, g := range r.gens {
		for _, class := range sortedKeys(g.Injected) {
			genInjected += g.Injected[class]
			fmt.Fprintf(d, "gen %s %d\n", class, g.Injected[class])
		}
	}
	if genInjected > injected {
		res.failf("generators injected %d jobs but apps started only %d", genInjected, injected)
	}
	var spilled, wanHops int
	if r.regions != nil {
		spilled, wanHops = r.regions.Spilled, r.regions.WANHops
	}
	fmt.Fprintf(d, "evicted %d spilled %d wan %d tenants %d\n", r.evicted, spilled, wanHops, len(r.apps))
	res.Digest = hex.EncodeToString(d.Sum(nil))
	if completed == 0 {
		res.failf("no job completed")
	}

	decisions := append(append([]float64(nil), r.tickUs...), r.solveUs...)
	m["run_s"] = runSec
	m["jobs_per_s"] = float64(completed) / runSec
	m["allocs_per_job"] = float64(allocs) / float64(injected)
	m["decision_us_p50"] = percentile(decisions, 50)
	if len(decisions) >= 100 {
		m["decision_us_p90"] = percentile(decisions, 90)
	}
	m["decision_samples"] = float64(len(decisions))
	m["sla_violation_pct"] = violSum / float64(len(r.apps))
	m["avg_alloc_cpus"] = allocCPUs
	m["failed_jobs_pct"] = 100 * float64(failed) / float64(injected)

	m["sim.minute_ms_p50"] = percentile(r.minuteMs, 50)
	m["sim.minute_ms_max"] = percentile(r.minuteMs, 100)
	m["core.tick_us_p50"] = percentile(r.tickUs, 50)
	m["core.solve_us_p50"] = percentile(r.solveUs, 50)
	m["sim.events"] = float64(events)
	m["sim.events_per_job"] = float64(events) / float64(injected)
	m["sim.pending_max"] = float64(r.pendingMax)
	m["workload.jobs_injected"] = float64(genInjected)
	m["services.jobs_completed"] = float64(completed)
	m["services.backlog_jobs"] = float64(injected - completed - failed)
	m["services.rpc_retries"] = retries
	m["services.rpc_errors"] = rpcErrors
	m["services.unschedulable"] = float64(unsched)
	m["core.ticks"] = float64(ticks)
	m["core.solves"] = float64(solves)
	m["core.fast_share"] = float64(fast) / float64(max(solves, 1))
	m["core.tenants_admitted"] = float64(len(r.apps))
	m["region.evicted"] = float64(r.evicted)
	m["region.spilled"] = float64(spilled)
	m["region.wan_hops"] = float64(wanHops)
	if r.tr != nil {
		m["cluster.place_failures"] = float64(r.placeFailures)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tracedPlacer times every replica placement. With no inner placer it calls
// the cluster directly, exactly what services does when App.Placer is nil.
type tracedPlacer struct {
	r     *runner
	inner services.Placer
	cl    *cluster.Cluster
}

func (p tracedPlacer) PlaceReplica(service string, cpus float64) (cluster.Placement, error) {
	id := p.r.tr.start("cluster.place")
	var pl cluster.Placement
	var err error
	if p.inner != nil {
		pl, err = p.inner.PlaceReplica(service, cpus)
	} else {
		pl, err = p.cl.Place(cpus)
	}
	p.r.tr.end(id)
	if err != nil {
		p.r.placeFailures++
	}
	return pl, err
}

// instrument wraps a managed app's placement, eviction and recalculation
// hooks in spans on traced runs. Each wrapper calls what it wraps and
// nothing else, so the simulated outcome is unchanged.
func (r *runner) instrument(app *services.App, mgr *core.Manager) {
	if r.tr == nil {
		return
	}
	if app.Cluster != nil {
		app.Placer = tracedPlacer{r: r, inner: app.Placer, cl: app.Cluster}
	}
	if evict := app.OnEviction; evict != nil {
		app.OnEviction = func(evs []services.Eviction) {
			id := r.tr.start("core.evict")
			evict(evs)
			r.tr.end(id)
		}
	}
	if recalc := mgr.Detector.Recalculate; recalc != nil {
		mgr.Detector.Recalculate = func(at sim.Time, service string) {
			id := r.tr.start("core.recalc")
			recalc(at, service)
			r.tr.end(id)
		}
	}
}
