package experiments

import (
	"fmt"
	"strings"
	"time"

	"ursa/internal/baselines"
	"ursa/internal/baselines/firm"
	"ursa/internal/core"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// ControlPlaneResult reproduces Table VI: average wall-clock control-plane
// latency (ms) for deployment decisions and for model updates.
type ControlPlaneResult struct {
	// DeployMs maps system → mean per-decision latency.
	DeployMs map[string]float64
	// UpdateMs maps system → model-update latency (Ursa: one full solve of
	// the performance model; Firm: one RL training iteration; autoscaling:
	// threshold check; Sinan retraining is reported by the paper as N/A /
	// minutes-scale).
	UpdateMs map[string]float64
}

// RunControlPlane measures decision and update latencies on the social
// network. All systems run the same deployment; latencies are wall-clock.
// Unlike the other grids, the measurement loop deliberately stays sequential
// regardless of Options.Parallelism: Table VI reports wall-clock latency,
// and running the systems concurrently would distort it through CPU
// contention. Manager preparation still reuses the shared trained-prototype
// caches, so nothing is retrained here.
func RunControlPlane(opts Options) (ControlPlaneResult, error) {
	opts.defaults()
	c, _ := AppCaseByName("social-network")
	res := ControlPlaneResult{DeployMs: map[string]float64{}, UpdateMs: map[string]float64{}}

	dur := opts.scaleTime(15*sim.Minute, 6*sim.Minute)
	ursa, err := opts.newUrsa(c)
	if err != nil {
		return res, fmt.Errorf("tab6: %w", err)
	}
	mgrs := map[string]baselines.Manager{
		"ursa":   ursa,
		"sinan":  opts.newSinan(c),
		"firm":   opts.newFirm(c),
		"auto-a": autoscaleA(),
	}
	for _, name := range []string{"ursa", "sinan", "firm", "auto-a"} {
		opts.logf("tab6: measuring %s deployment decisions", name)
		r, err := Run(Scenario{
			Seed: opts.Seed + 20, Spec: c.Spec, Mix: c.Mix,
			Pattern: workload.Constant{Value: c.TotalRPS}, Manager: mgrs[name],
			Duration: dur,
		})
		if err != nil {
			return res, fmt.Errorf("tab6: %s: %w", name, err)
		}
		res.DeployMs[name] = r.DecisionMs
	}

	// Update latencies.
	// Ursa: one full solve of MIP (1) by the specialised exact
	// branch-and-bound, which stands in for the paper's Gurobi call (§V.3).
	ex := &core.Explorer{Spec: c.Spec, Mix: c.Mix, TotalRPS: c.TotalRPS}
	model := &core.Model{
		Profiles: ursa.mgr.Profiles,
		Targets:  ursa.mgr.Targets,
		Loads:    ex.ServiceClassLoads(),
	}
	start := time.Now()
	if _, err := model.Solve(); err != nil {
		return res, fmt.Errorf("tab6: ursa re-solve: %w", err)
	}
	res.UpdateMs["ursa"] = float64(time.Since(start).Nanoseconds()) / 1e6

	// Firm: one online training iteration per agent.
	f := mgrs["firm"].(*firm.Firm)
	res.UpdateMs["firm"] = f.AvgTrainMillis()
	res.UpdateMs["auto-a"] = res.DeployMs["auto-a"]
	// Sinan retraining is a full model refit; the paper reports it as
	// minutes on a GPU (N/A for the online path).
	res.UpdateMs["sinan"] = -1

	return res, nil
}

// Render prints Table VI.
func (r ControlPlaneResult) Render() string {
	var b strings.Builder
	b.WriteString("Table VI — control plane latency (wall-clock ms)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "system", "deploy", "update")
	for _, name := range []string{"ursa", "sinan", "firm", "auto-a"} {
		upd := "n/a"
		if v, ok := r.UpdateMs[name]; ok && v >= 0 {
			upd = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(&b, "%-10s %12.3f %12s\n", name, r.DeployMs[name], upd)
	}
	return b.String()
}
