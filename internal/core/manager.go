package core

import (
	"fmt"
	"math"
	"sort"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// Manager is the assembled Ursa system (Fig. 5): exploration profiles feed
// the optimization engine, whose LPR thresholds drive the resource
// controller; the anomaly detector watches deployment and triggers
// recalculation. Attach it to a running app with Run.
type Manager struct {
	Spec       services.AppSpec
	Targets    []ClassTarget
	Profiles   map[string]*Profile
	Controller *Controller
	Detector   *Detector

	// OptimizeCount/OptimizeSeconds accumulate wall-clock cost of solving
	// the performance model (the "update" path of Table VI).
	OptimizeCount   int
	OptimizeSeconds float64

	// FastResolveCount counts Optimize calls served by the incremental
	// re-solve fast path (always ≤ OptimizeCount).
	FastResolveCount int

	lastSol      *Solution
	lastLoads    map[string]map[string]float64
	lastProfiles map[string]*Profile

	app     *services.App
	tickers []*sim.Ticker
}

// TargetsFor derives the ClassTargets of every class declared in a spec.
func TargetsFor(spec services.AppSpec) []ClassTarget {
	var out []ClassTarget
	for _, cs := range spec.Classes {
		path := ClassPath(&spec, cs.Name)
		if len(path) == 0 {
			continue
		}
		out = append(out, ClassTarget{
			Name:       cs.Name,
			Percentile: cs.SLAPercentile,
			TargetMs:   cs.SLAMillis,
			Path:       path,
		})
	}
	return out
}

// fastResolveTolerance is the relative load drift (ε) the incremental
// re-solve fast path absorbs: when the profiles are unchanged and every
// per-(service,class) load moved by less than 5% since the last full solve,
// Optimize re-verifies the incumbent pick in O(terms) and reuses it (with
// costs refreshed for the new loads) instead of re-running branch-and-bound
// (~10 µs vs ~39 µs per BENCH_decision.json). Latency rows and certified
// bounds are load-independent, so the reused incumbent stays feasible;
// within ε it also stays near-cheapest. Any ε violation falls back to the
// full solve.
const fastResolveTolerance = 0.05

// NewManager builds a manager from exploration output.
func NewManager(spec services.AppSpec, profiles map[string]*Profile) *Manager {
	return &Manager{Spec: spec, Profiles: profiles, Targets: TargetsFor(spec)}
}

// Optimize solves the performance model for the given per-service loads and
// returns the threshold solution, accounting its wall-clock cost.
// Near-identical re-solves are served by the incremental fast path instead
// of a full search.
func (m *Manager) Optimize(loads map[string]map[string]float64) (*Solution, error) {
	start := nowWall()
	if sol, ok := m.resolveIncremental(loads); ok {
		m.FastResolveCount++
		m.OptimizeCount++
		m.OptimizeSeconds += nowWall() - start
		return sol, nil
	}
	model := &Model{Profiles: m.Profiles, Targets: m.Targets, Loads: loads}
	sol, err := model.Solve()
	m.OptimizeCount++
	m.OptimizeSeconds += nowWall() - start
	if err == nil {
		m.rememberSolve(loads, sol)
	} else {
		m.lastSol = nil
	}
	return sol, err
}

// rememberSolve snapshots the inputs and output of a successful full solve
// for the incremental fast path: the loads (deep-copied — callers reuse
// their maps), the profile pointers (installing a new *Profile invalidates
// the incumbent) and the solution itself.
func (m *Manager) rememberSolve(loads map[string]map[string]float64, sol *Solution) {
	snap := make(map[string]map[string]float64, len(loads))
	for svc, classes := range loads {
		c := make(map[string]float64, len(classes))
		for class, v := range classes {
			c[class] = v
		}
		snap[svc] = c
	}
	ps := make(map[string]*Profile, len(m.Profiles))
	for name, p := range m.Profiles {
		ps[name] = p
	}
	m.lastSol, m.lastLoads, m.lastProfiles = sol, snap, ps
}

// resolveIncremental serves Optimize from the previous solution when the
// model moved less than fastResolveTolerance: profiles identical (by pointer),
// the same set of loaded (service, class) pairs, and every load within the
// relative ε of its value at the last full solve. The incumbent's latency
// rows, bounds and percentile assignment do not depend on loads, so only
// feasibility is re-checked (O(targets)) and the per-choice costs are
// recomputed for the new loads (O(services × classes)) — no search.
func (m *Manager) resolveIncremental(loads map[string]map[string]float64) (*Solution, bool) {
	if m.lastSol == nil {
		return nil, false
	}
	if len(m.Profiles) != len(m.lastProfiles) {
		return nil, false
	}
	for name, p := range m.Profiles {
		if m.lastProfiles[name] != p {
			return nil, false
		}
	}
	// Identical load support: a class appearing or disappearing changes
	// which targets are active and which options are admissible, so any
	// support change forces a full solve.
	if len(loads) != len(m.lastLoads) {
		return nil, false
	}
	for svc, classes := range loads {
		old, ok := m.lastLoads[svc]
		if !ok || len(classes) != len(old) {
			return nil, false
		}
		for class, v := range classes {
			ov, okc := old[class]
			if !okc || ov <= 0 || v <= 0 {
				return nil, false
			}
			if math.Abs(v-ov)/ov >= fastResolveTolerance {
				return nil, false
			}
		}
	}
	model := &Model{Profiles: m.Profiles, Targets: m.Targets, Loads: loads}
	// Re-verify the incumbent's certificates against the (load-independent)
	// targets. Inactive targets have no recorded bound, exactly as a full
	// solve would drop them.
	for t, tgt := range m.Targets {
		bound, ok := m.lastSol.BoundMs[tgt.Name]
		if !ok {
			continue
		}
		if bound > model.targetMs(t) {
			return nil, false
		}
	}
	// Rebuild the solution with costs refreshed for the new loads, summing
	// in sorted service order so TotalCPUs is deterministic.
	names := make([]string, 0, len(m.lastSol.Choices))
	for name := range m.lastSol.Choices {
		names = append(names, name)
	}
	sort.Strings(names)
	out := &Solution{
		Choices:          make(map[string]*Choice, len(names)),
		PercentileChoice: make(map[string][]float64, len(m.lastSol.PercentileChoice)),
		BoundMs:          make(map[string]float64, len(m.lastSol.BoundMs)),
	}
	for _, name := range names {
		ch := m.lastSol.Choices[name]
		p := m.Profiles[name]
		if ch.PointIndex >= len(p.Points) {
			return nil, false
		}
		cost, ok := model.optionCost(name, &p.Points[ch.PointIndex])
		if !ok {
			return nil, false
		}
		out.Choices[name] = &Choice{
			Service:     name,
			PointIndex:  ch.PointIndex,
			LPR:         ch.LPR,
			RateSamples: ch.RateSamples,
			CostCPUs:    cost,
		}
		out.TotalCPUs += cost
	}
	for class, percs := range m.lastSol.PercentileChoice {
		out.PercentileChoice[class] = percs
	}
	for class, bound := range m.lastSol.BoundMs {
		out.BoundMs[class] = bound
	}
	return out, true
}

// LoadsFromMix projects per-service per-class loads from an entry mix and a
// total rate, used for the initial optimization before deployment metrics
// exist.
func (m *Manager) LoadsFromMix(mix workload.Mix, totalRPS float64) map[string]map[string]float64 {
	ex := &Explorer{Spec: m.Spec, Mix: mix, TotalRPS: totalRPS}
	return ex.ServiceClassLoads()
}

// LiveLoads reads per-service per-class loads from the running app's last k
// windows.
func (m *Manager) LiveLoads(app *services.App, k int) map[string]map[string]float64 {
	now := app.Eng.Now()
	from := now - sim.Time(k)*app.Window()
	if from < 0 {
		from = 0
	}
	out := map[string]map[string]float64{}
	for _, name := range app.ServiceNames() {
		svc := app.Service(name)
		mm := map[string]float64{}
		for class, counter := range svc.Arrivals {
			if r := counter.Rate(from, now); r > 0 {
				mm[class] = r
			}
		}
		if len(mm) > 0 {
			out[name] = mm
		}
	}
	return out
}

// Run deploys Ursa onto a running application: it solves the model for the
// expected load, applies the initial replica counts, and starts the
// controller and anomaly detector tickers. Stop with Stop.
func (m *Manager) Run(app *services.App, mix workload.Mix, totalRPS float64, cctl ControllerConfig, canom AnomalyConfig) error {
	loads := m.LoadsFromMix(mix, totalRPS)
	sol, err := m.Optimize(loads)
	if err != nil {
		return fmt.Errorf("initial optimization: %w", err)
	}
	m.app = app
	m.Controller = NewController(app, sol, cctl)
	m.Detector = NewDetector(app, sol, m.Targets, canom)
	m.Detector.Recalculate = func(at sim.Time, service string) {
		live := m.LiveLoads(app, 3)
		if newSol, err := m.Optimize(live); err == nil {
			m.Controller.SetSolution(newSol)
			m.Detector.SetSolution(newSol)
		}
	}
	// Infrastructure failures (§V.5's anomaly axis the paper never
	// exercises): when a crash evicts replicas, re-solve against live loads
	// and re-place the lost capacity immediately instead of waiting for the
	// next control tick.
	app.OnEviction = func(evs []services.Eviction) { m.handleEviction(app, evs) }

	// Apply initial allocation in sorted service order: on cluster-bound
	// apps replica placement depends on allocation order, so map order here
	// would leak into node assignment.
	for _, name := range sortedChoiceNames(sol) {
		choice := sol.Choices[name]
		svc := app.Service(name)
		if svc == nil {
			continue
		}
		want := 1
		for class, thr := range choice.LPR {
			if thr <= 0 {
				continue
			}
			if l, ok := loads[name][class]; ok {
				n := int(l/thr) + 1
				if l > 0 && float64(int(l/thr))*thr == l {
					n = int(l / thr)
				}
				if n > want {
					want = n
				}
			}
		}
		svc.SetReplicas(want)
	}

	cfg := cctl
	cfg.defaults()
	m.tickers = append(m.tickers, app.Eng.Every(cfg.Interval, func() { m.Controller.Tick() }))
	acfg := canom
	acfg.defaults()
	m.tickers = append(m.tickers, app.Eng.Every(acfg.Interval, func() { m.Detector.Tick() }))
	return nil
}

// handleEviction is the crash-recovery path: refresh the thresholds from
// live loads (capturing any drift since the last solve), then re-place the
// evicted replicas on the remaining capacity. Placement failures surface as
// UnschedulableEvents; the periodic controller retries on its next tick.
func (m *Manager) handleEviction(app *services.App, evs []services.Eviction) {
	if live := m.LiveLoads(app, 3); len(live) > 0 {
		if sol, err := m.Optimize(live); err == nil {
			m.Controller.SetSolution(sol)
			m.Detector.SetSolution(sol)
		}
	}
	for _, ev := range evs {
		if svc := app.Service(ev.Service); svc != nil {
			svc.SetReplicas(svc.Replicas() + ev.Replicas)
		}
	}
}

// Stop halts the manager's tickers and detaches the eviction hook.
func (m *Manager) Stop() {
	for _, t := range m.tickers {
		t.Stop()
	}
	m.tickers = nil
	if m.app != nil {
		m.app.OnEviction = nil
	}
}

// AvgOptimizeMillis reports the mean wall-clock model-solve latency.
func (m *Manager) AvgOptimizeMillis() float64 {
	if m.OptimizeCount == 0 {
		return 0
	}
	return m.OptimizeSeconds / float64(m.OptimizeCount) * 1e3
}

// AvgDecisionMillis reports the mean wall-clock latency across every
// control-plane decision the manager made: controller Ticks (via the
// controller's DecisionCount/DecisionSeconds) together with model solves
// (deploy-time and detector-triggered, fast-path or full). This is the
// per-decision number Table VI-style comparisons report for Ursa.
func (m *Manager) AvgDecisionMillis() float64 {
	count := m.OptimizeCount
	seconds := m.OptimizeSeconds
	if m.Controller != nil {
		count += m.Controller.DecisionCount
		seconds += m.Controller.DecisionSeconds
	}
	if count == 0 {
		return 0
	}
	return seconds / float64(count) * 1e3
}
