// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) on the simulated testbed: the backpressure study
// (Fig. 2), threshold profiling (Fig. 4), exploration overhead (Table V),
// model accuracy (Fig. 9/10), the performance comparison (Fig. 11/12), the
// diurnal scaling trace (Fig. 13), control-plane latency (Table VI) and
// adaptation to service changes (Fig. 14).
//
// Every experiment takes Options so benchmarks can trade fidelity for run
// time: Scale < 1 shortens deployments and sample counts proportionally
// without changing the workload shapes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"ursa/internal/baselines"
	"ursa/internal/baselines/autoscale"
	"ursa/internal/baselines/firm"
	"ursa/internal/baselines/sinan"
	"ursa/internal/core"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/topology"
	"ursa/internal/workload"
)

// Options controls experiment scale and reproducibility.
type Options struct {
	// Seed drives every stochastic component.
	Seed int64
	// Scale shrinks run durations and ML sample counts (1.0 = paper-like
	// proportions, 0.2 = quick smoke run).
	Scale float64
	// Log, when non-nil, receives progress lines. Writes are serialized, so
	// any io.Writer is safe even under parallel execution.
	Log io.Writer
	// Parallelism bounds the worker pool that fans independent simulation
	// cells across goroutines: 0 (the default) means GOMAXPROCS, 1 forces
	// sequential execution. Results are merged in a canonical order, so any
	// setting produces byte-identical rendered output.
	Parallelism int
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
}

// logMu serializes progress lines so concurrent cells never interleave
// partial writes on a shared writer.
var logMu sync.Mutex

func (o *Options) logf(format string, args ...any) {
	if o.Log == nil {
		return
	}
	logMu.Lock()
	defer logMu.Unlock()
	fmt.Fprintf(o.Log, format+"\n", args...)
}

// scaleInt scales a count, with a floor.
func (o *Options) scaleInt(n, min int) int {
	v := int(float64(n) * o.Scale)
	if v < min {
		v = min
	}
	return v
}

// scaleTime scales a duration, with a floor.
func (o *Options) scaleTime(t, min sim.Time) sim.Time {
	v := sim.Time(float64(t) * o.Scale)
	if v < min {
		v = min
	}
	return v
}

// AppCase is one benchmark application with its nominal load.
type AppCase struct {
	Name     string
	Spec     services.AppSpec
	Mix      workload.Mix
	TotalRPS float64
}

// AppCases returns the §VII-E evaluation applications, sourced from the
// spec-compiled topology layer. The order is fixed (it reaches rendered
// table row order) and intentionally not alphabetical: vanilla rides next to
// its parent app, as in the paper's tables.
func AppCases() []AppCase {
	order := []string{"social-network", "vanilla-social-network", "media-service", "video-pipeline"}
	cases := make([]AppCase, 0, len(order))
	for _, name := range order {
		a, ok := topology.AppByName(name)
		if !ok {
			panic(fmt.Sprintf("experiments: benchmark app %q missing from topology", name))
		}
		cases = append(cases, AppCase{a.Name, a.Spec, a.Mix, a.RPS})
	}
	return cases
}

// AppCaseByName finds a case.
func AppCaseByName(name string) (AppCase, bool) {
	for _, c := range AppCases() {
		if c.Name == name {
			return c, true
		}
	}
	return AppCase{}, false
}

// exploreWindow is the shortened exploration window used by the harness; the
// Table V accounting still charges one minute per sample, like the paper.
const exploreWindow = 15 * sim.Second

// exploreConfig builds the Ursa exploration settings for an app case.
func (o *Options) exploreConfig() core.ExploreConfig {
	return core.ExploreConfig{
		WindowsPerPoint:  o.scaleInt(10, 4),
		Window:           exploreWindow,
		SLAViolationFreq: 0.10,
		Seed:             o.Seed,
	}
}

// profileCache memoises exploration output per (app, seed, scale): the
// experiments share one exploration per application, exactly as the paper
// explores once and reuses the profiles across every deployment run. Entries
// carry a sync.Once, so concurrent cells asking for the same app block on a
// single exploration (singleflight) instead of duplicating it.
var (
	profileMu    sync.Mutex
	profileCache = map[string]*profileCacheEntry{}
)

type profileCacheEntry struct {
	once     sync.Once
	ex       *core.Explorer
	profiles map[string]*core.Profile
	sum      core.ExplorationSummary
}

// ursaProfiles runs backpressure profiling + LPR exploration for an app and
// returns the explorer, profiles and Table V accounting. The profiles map is
// a deep copy: deployments mutate profile points in place (e.g. by sorting),
// and handing out the cached map by reference would let one run pollute
// every later cache hit. The explorer is shared and must be treated as
// read-only after exploration.
func (o *Options) ursaProfiles(c AppCase) (*core.Explorer, map[string]*core.Profile, core.ExplorationSummary) {
	key := fmt.Sprintf("%s/%d/%.3f", c.Name, o.Seed, o.Scale)
	profileMu.Lock()
	e := profileCache[key]
	if e == nil {
		e = &profileCacheEntry{}
		profileCache[key] = e
	}
	profileMu.Unlock()
	e.once.Do(func() { e.ex, e.profiles, e.sum = o.ursaProfilesUncached(c) })
	return e.ex, core.CloneProfiles(e.profiles), e.sum
}

func (o *Options) ursaProfilesUncached(c AppCase) (*core.Explorer, map[string]*core.Profile, core.ExplorationSummary) {
	ex := &core.Explorer{
		Spec:       c.Spec,
		Mix:        c.Mix,
		TotalRPS:   c.TotalRPS,
		Thresholds: map[string]float64{},
	}
	// Backpressure thresholds for RPC-connected services (§III), one
	// independent sweep per service on the worker pool.
	loads := ex.ServiceClassLoads()
	thresholds := make([]float64, len(c.Spec.Services))
	o.forEach(len(thresholds), func(i int) {
		ss := c.Spec.Services[i]
		if ss.IngressCostMs <= 0 {
			thresholds[i] = 1.0
			return
		}
		perReplica := core.ScaleProfilingLoad(ss, loads[ss.Name], 0.85)
		res := core.ProfileBackpressureThreshold(ss, perReplica, core.ProfilerConfig{
			Seed:           o.Seed,
			WindowsPerStep: o.scaleInt(8, 4),
			Window:         15 * sim.Second,
			// Coarser sweep than Fig. 4's: the harness only needs the
			// threshold, not the full curve.
			Factors: []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0},
		})
		// Degenerate sweeps floor at a conservative value.
		thresholds[i] = max(res.Threshold, 0.3)
	})
	for i, ss := range c.Spec.Services {
		ex.Thresholds[ss.Name] = thresholds[i]
	}
	profiles, sum, err := ex.ExploreAll(o.exploreConfig())
	if err != nil {
		panic(fmt.Sprintf("exploration for %s failed: %v", c.Name, err))
	}
	return ex, profiles, sum
}

// ursaManager builds a ready-to-attach Ursa manager for an app case.
type ursaAdapter struct {
	mgr      *core.Manager
	mix      workload.Mix
	totalRPS float64
}

func (u *ursaAdapter) Name() string { return "ursa" }

// Deploy solves the model and starts Ursa's control loop on app; Run
// returns a failed solve as an error.
func (u *ursaAdapter) Deploy(app *services.App) error {
	if err := u.mgr.Run(app, u.mix, u.totalRPS, core.ControllerConfig{}, core.AnomalyConfig{}); err != nil {
		return fmt.Errorf("ursa deploy failed: %w", err)
	}
	return nil
}

// Attach is Deploy for callers outside Run, which have no error path.
func (u *ursaAdapter) Attach(app *services.App) {
	if err := u.Deploy(app); err != nil {
		panic(err)
	}
}
func (u *ursaAdapter) Detach() { u.mgr.Stop() }
func (u *ursaAdapter) AvgDecisionMillis() float64 {
	// Table VI's "deploy" column is the per-tick scaling decision; model
	// solves are its separate "update" column. Manager.AvgDecisionMillis
	// reports the combined per-decision cost when both matter.
	if u.mgr.Controller == nil {
		return 0
	}
	return u.mgr.Controller.AvgDecisionMillis()
}

var _ baselines.Manager = (*ursaAdapter)(nil)

// newUrsa prepares Ursa (exploration + model) for a case.
func (o *Options) newUrsa(c AppCase) *ursaAdapter {
	_, profiles, _ := o.ursaProfiles(c)
	return o.ursaWith(c, profiles)
}

// ursaWith builds Ursa for a case from already-explored profiles.
func (o *Options) ursaWith(c AppCase, profiles map[string]*core.Profile) *ursaAdapter {
	return &ursaAdapter{mgr: core.NewManager(c.Spec, profiles), mix: c.Mix, totalRPS: c.TotalRPS}
}

// newSinan hands out a fresh clone of the trained Sinan prototype for a
// case, collecting data and training it on first use (singleflight).
func (o *Options) newSinan(c AppCase) *sinan.Sinan {
	key := fmt.Sprintf("sinan/%s/%d/%.3f", c.Name, o.Seed, o.Scale)
	proto := protoFor(key, func() any {
		o.logf("prep: collecting + training sinan for %s", c.Name)
		res := sinan.Collect(c.Spec, c.Mix, c.TotalRPS, sinan.CollectConfig{
			Samples: o.scaleInt(1000, 150),
			Window:  exploreWindow,
			Seed:    o.Seed,
		})
		return sinan.Train(c.Spec, res.SvcNames, res.RPSNorm, res.Samples, sinan.Config{
			Seed:   o.Seed,
			Epochs: o.scaleInt(60, 20),
		})
	}).(*sinan.Sinan)
	return proto.Clone()
}

// newFirm hands out a fresh clone of the pretrained Firm prototype for a
// case, pretraining it on first use (singleflight). Cloning (rather than
// reusing one instance) matters doubly for Firm: it keeps training online
// during deployment, so a shared instance would both race under parallel
// cells and carry warm RL state from one run into the next.
func (o *Options) newFirm(c AppCase) *firm.Firm {
	key := fmt.Sprintf("firm/%s/%d/%.3f", c.Name, o.Seed, o.Scale)
	proto := protoFor(key, func() any {
		o.logf("prep: pretraining firm for %s", c.Name)
		f := firm.New(c.Spec, specServiceNames(c.Spec), c.TotalRPS*2, firm.Config{Seed: o.Seed})
		firm.Pretrain(f, c.Mix, c.TotalRPS, firm.PretrainConfig{
			Samples: o.scaleInt(1000, 150),
			Window:  exploreWindow,
			Seed:    o.Seed,
		})
		f.SetExplore(false)
		return f
	}).(*firm.Firm)
	return proto.Clone()
}

// newManagerFor constructs a fresh, never-before-attached manager for one
// deployment cell. Expensive preparation (exploration, ML training) is
// cached per app and deduplicated; the returned manager is always pristine,
// so cells can run in any order — or concurrently — with identical results.
// Because construction is lazy, systems excluded by a filter are never
// prepared at all.
func (o *Options) newManagerFor(c AppCase, system string) baselines.Manager {
	switch system {
	case "ursa":
		return o.newUrsa(c)
	case "sinan":
		return o.newSinan(c)
	case "firm":
		return o.newFirm(c)
	case "auto-a":
		return autoscaleA()
	case "auto-b":
		return autoscaleB()
	}
	panic(fmt.Sprintf("experiments: unknown system %q", system))
}

// UrsaProfiles exposes the exploration pipeline (profiling + Algorithm 1)
// for the CLI tools.
func (o *Options) UrsaProfiles(c AppCase) (*core.Explorer, map[string]*core.Profile, core.ExplorationSummary) {
	o.defaults()
	return o.ursaProfiles(c)
}

// NewManager prepares a fresh manager of one of Systems() for a case:
// exploration for Ursa, data collection and training for Sinan and Firm.
func (o *Options) NewManager(c AppCase, system string) (baselines.Manager, error) {
	o.defaults()
	if !contains(Systems(), system) {
		return nil, fmt.Errorf("unknown system %q", system)
	}
	return o.newManagerFor(c, system), nil
}

// autoscaleA and autoscaleB build the two autoscaling baselines.
func autoscaleA() baselines.Manager { return autoscale.New(autoscale.AutoA()) }
func autoscaleB() baselines.Manager { return autoscale.New(autoscale.AutoB()) }

func specServiceNames(spec services.AppSpec) []string {
	out := make([]string, 0, len(spec.Services))
	for _, s := range spec.Services {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// deployment is the §VII-E comparison scenario: one case on an uncapacitated
// deployment under a manager, two minutes of warm-up, then dur measured.
func (o *Options) deployment(c AppCase, mgr baselines.Manager, pattern workload.Pattern, mix workload.Mix, dur sim.Time) Scenario {
	return Scenario{
		Seed: o.Seed + 1000, Spec: c.Spec, Mix: mix, Pattern: pattern, Manager: mgr,
		Warm: 2 * sim.Minute, Duration: dur,
	}
}
