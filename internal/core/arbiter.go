package core

import (
	"fmt"

	"ursa/internal/cluster"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// DefaultRefreshInterval is the fleet steady-state cadence: once per metrics
// window each tenant's manager re-solves against its live loads — almost
// always served by the incremental re-solve fast path under stable traffic.
const DefaultRefreshInterval = sim.Minute

// TenantSpec describes one application asking for admission to the shared
// cluster: its topology, exploration profiles, expected workload, and the
// per-tenant control configs (each tenant keeps its own SLA targets — they
// ride in the AppSpec's classes).
type TenantSpec struct {
	Name     string
	Spec     services.AppSpec
	Profiles map[string]*Profile
	Mix      workload.Mix
	TotalRPS float64

	Controller ControllerConfig
	Anomaly    AnomalyConfig
}

// Tenant is one admitted application: its manager, its deployed app, and the
// model-certified CPU demand it claimed at admission.
type Tenant struct {
	Name         string
	Manager      *Manager
	App          *services.App
	Mix          workload.Mix
	TotalRPS     float64
	AdmittedCPUs float64
}

// ErrAdmission reports an admission rejection: the tenant's model-certified
// demand exceeds the cluster's free capacity.
type ErrAdmission struct {
	Tenant   string
	NeedCPUs float64
	FreeCPUs float64
}

func (e ErrAdmission) Error() string {
	return fmt.Sprintf("arbiter: tenant %s needs %.1f CPUs, cluster has %.1f free",
		e.Tenant, e.NeedCPUs, e.FreeCPUs)
}

// Arbiter fronts one shared cluster for many per-app managers — the
// fleet-scale control plane of ROADMAP item 1 (one resource manager
// arbitrating a large cluster across applications, as in Alibaba's elastic
// provisioning): admission control against model-certified demand, all
// placement through the one indexed cluster, and per-tenant SLA management
// by each tenant's own manager. It is engine-driven and deterministic, like
// everything else in the simulation.
type Arbiter struct {
	Eng     *sim.Engine
	Cluster *cluster.Cluster

	// AdmissionRejects counts tenants turned away for lack of capacity.
	AdmissionRejects int

	tenants []*Tenant
	byName  map[string]*Tenant
	refresh *sim.Ticker
}

// NewArbiter wraps a cluster in an arbiter on the given engine.
func NewArbiter(eng *sim.Engine, cl *cluster.Cluster) *Arbiter {
	return &Arbiter{Eng: eng, Cluster: cl, byName: map[string]*Tenant{}}
}

// Admit runs admission control and, on success, deploys the tenant: solve
// the tenant's performance model for its expected load, compare the
// certified CPU demand against the cluster's free capacity, and only then
// create the app and attach its manager. The admission solve is not wasted —
// the manager's deploy-time Optimize sees identical loads and is served by
// the incremental fast path. Rejection leaves the cluster untouched.
func (a *Arbiter) Admit(ts TenantSpec) (*Tenant, error) {
	if _, dup := a.byName[ts.Name]; dup {
		return nil, fmt.Errorf("arbiter: duplicate tenant %q", ts.Name)
	}
	mgr := NewManager(ts.Spec, ts.Profiles)
	sol, err := mgr.Optimize(mgr.LoadsFromMix(ts.Mix, ts.TotalRPS))
	if err != nil {
		a.AdmissionRejects++
		return nil, fmt.Errorf("arbiter: tenant %s model solve: %w", ts.Name, err)
	}
	free := a.Cluster.AvailableCapacity() - a.Cluster.TotalUsed()
	if sol.TotalCPUs > free {
		a.AdmissionRejects++
		return nil, ErrAdmission{Tenant: ts.Name, NeedCPUs: sol.TotalCPUs, FreeCPUs: free}
	}
	app, err := services.NewAppOnCluster(a.Eng, ts.Spec, a.Cluster)
	if err != nil {
		return nil, fmt.Errorf("arbiter: tenant %s deploy: %w", ts.Name, err)
	}
	if err := mgr.Run(app, ts.Mix, ts.TotalRPS, ts.Controller, ts.Anomaly); err != nil {
		return nil, fmt.Errorf("arbiter: tenant %s attach: %w", ts.Name, err)
	}
	t := &Tenant{
		Name:         ts.Name,
		Manager:      mgr,
		App:          app,
		Mix:          ts.Mix,
		TotalRPS:     ts.TotalRPS,
		AdmittedCPUs: sol.TotalCPUs,
	}
	a.tenants = append(a.tenants, t)
	a.byName[ts.Name] = t
	return t, nil
}

// StartRefresh begins the fleet steady-state loop: every interval, each
// tenant's manager re-solves against its live loads and refreshes its
// controller and detector. Under stable traffic the incremental fast path
// serves these; a tenant whose load drifted past ε falls back to a
// full solve on its own — no cross-tenant coupling.
func (a *Arbiter) StartRefresh(interval sim.Time) {
	if interval <= 0 {
		interval = DefaultRefreshInterval
	}
	a.refresh = a.Eng.Every(interval, func() {
		for _, t := range a.tenants {
			live := t.Manager.LiveLoads(t.App, 3)
			if len(live) == 0 {
				continue
			}
			if sol, err := t.Manager.Optimize(live); err == nil {
				t.Manager.Controller.SetSolution(sol)
				t.Manager.Detector.SetSolution(sol)
			}
		}
	})
}

// Tenants lists admitted tenants in admission order.
func (a *Arbiter) Tenants() []*Tenant { return a.tenants }

// Tenant finds an admitted tenant by name (nil if unknown).
func (a *Arbiter) Tenant(name string) *Tenant { return a.byName[name] }

// AvgDecisionMillis reports the mean wall-clock control-plane decision
// latency across every tenant manager, weighted by decision count.
func (a *Arbiter) AvgDecisionMillis() float64 {
	count := 0
	seconds := 0.0
	for _, t := range a.tenants {
		m := t.Manager
		count += m.OptimizeCount
		seconds += m.OptimizeSeconds
		if m.Controller != nil {
			count += m.Controller.DecisionCount
			seconds += m.Controller.DecisionSeconds
		}
	}
	if count == 0 {
		return 0
	}
	return seconds / float64(count) * 1e3
}

// FastShare reports the fraction of model solves across the fleet served by
// the incremental fast path.
func (a *Arbiter) FastShare() float64 {
	fast, total := 0, 0
	for _, t := range a.tenants {
		fast += t.Manager.FastResolveCount
		total += t.Manager.OptimizeCount
	}
	if total == 0 {
		return 0
	}
	return float64(fast) / float64(total)
}

// UnschedulableEvents sums failed placements across tenant apps.
func (a *Arbiter) UnschedulableEvents() int {
	n := 0
	for _, t := range a.tenants {
		n += t.App.UnschedulableEvents
	}
	return n
}

// Stop halts the refresh loop and every tenant manager.
func (a *Arbiter) Stop() {
	if a.refresh != nil {
		a.refresh.Stop()
		a.refresh = nil
	}
	for _, t := range a.tenants {
		t.Manager.Stop()
	}
}
