package experiments

import (
	"fmt"
	"strings"

	"ursa/internal/core"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// AblationResult quantifies three design choices DESIGN.md calls out:
//
//  1. The Theorem 1 percentile-assignment freedom in MIP (1) vs a naive
//     equal-split decomposition — measured as projected CPU cost.
//  2. The Welch-t-test confirmation in the resource controller vs acting on
//     raw threshold crossings — measured as scaling actions (flapping) and
//     violation rate under noisy load.
//  3. The backpressure-free exploration boundary (§III) vs exploring all
//     the way to saturation — measured as deployment violation rate (the
//     independence assumption of the model breaks beyond the threshold).
type AblationResult struct {
	// Percentile policy ablation.
	BudgetCPUs     float64
	EqualSplitCPUs float64
	// EqualSplitFeasible is false when the naive decomposition cannot
	// certify the SLAs at all.
	EqualSplitFeasible bool

	// Controller t-test ablation.
	TTestActions, NoTTestActions      int
	TTestViolation, NoTTestViolation  float64
	TTestAvgCPUs, NoTTestAvgCPUs      float64
	ThresholdOnViolation              float64
	ThresholdOffViolation             float64
	ThresholdOnCPUs, ThresholdOffCPUs float64
}

// RunAblation executes the three studies on the social network.
func RunAblation(opts Options) (AblationResult, error) {
	opts.defaults()
	c, _ := AppCaseByName("social-network")
	ex, profiles, _ := opts.ursaProfiles(c)
	loads := ex.ServiceClassLoads()
	var res AblationResult

	// 1. Percentile policy.
	opts.logf("ablation: percentile policy")
	targets := core.TargetsFor(c.Spec)
	budget := &core.Model{Profiles: profiles, Targets: targets, Loads: loads}
	if sol, err := budget.Solve(); err == nil {
		res.BudgetCPUs = sol.TotalCPUs
	}
	equal := &core.Model{Profiles: profiles, Targets: targets, Loads: loads, EqualSplitPercentiles: true}
	if sol, err := equal.Solve(); err == nil {
		res.EqualSplitFeasible = true
		res.EqualSplitCPUs = sol.TotalCPUs
	}

	// 2 + 3 run four independent deployments (t-test on/off, exploration
	// threshold on/off); fan them over the worker pool. Each task writes its
	// own result fields, so the merge is deterministic.
	runDeploy := func(p map[string]*core.Profile) (float64, float64, error) {
		r, err := Run(Scenario{
			Seed: opts.Seed + 81, Spec: c.Spec, Mix: c.Mix,
			Pattern: workload.Constant{Value: c.TotalRPS}, Manager: opts.ursaWith(c, p),
			Warm: 2 * sim.Minute, Duration: opts.scaleTime(30*sim.Minute, 10*sim.Minute),
		})
		return r.ViolationRate, r.AvgCPUs, err
	}
	tasks := []func() error{
		// 2. Controller t-test under load that hovers at a replica boundary:
		// the offered rate sits right where ceil(load/threshold) flips, so a
		// controller that acts on raw window estimates flaps while the
		// t-test absorbs the noise.
		func() (err error) {
			opts.logf("ablation: controller with t-test")
			res.TTestActions, res.TTestViolation, res.TTestAvgCPUs, err = runBoundaryController(opts, false)
			return err
		},
		func() (err error) {
			opts.logf("ablation: controller without t-test")
			res.NoTTestActions, res.NoTTestViolation, res.NoTTestAvgCPUs, err = runBoundaryController(opts, true)
			return err
		},
		// 3. Backpressure threshold on/off during exploration.
		func() (err error) {
			opts.logf("ablation: deployment with backpressure-free boundary")
			res.ThresholdOnViolation, res.ThresholdOnCPUs, err = runDeploy(profiles)
			return err
		},
		func() (err error) {
			opts.logf("ablation: exploring to saturation (threshold off)")
			exOff := &core.Explorer{Spec: c.Spec, Mix: c.Mix, TotalRPS: c.TotalRPS, Thresholds: map[string]float64{}}
			for _, s := range c.Spec.Services {
				exOff.Thresholds[s.Name] = 1.0 // explore all the way to saturation
			}
			profOff, _, err := exOff.ExploreAll(opts.exploreConfig())
			if err != nil {
				return nil // an infeasible saturated exploration leaves the row at zero
			}
			res.ThresholdOffViolation, res.ThresholdOffCPUs, err = runDeploy(profOff)
			return err
		},
	}
	err := opts.forEachErr(len(tasks), func(i int) error { return tasks[i]() })
	return res, err
}

// runBoundaryController deploys a single-service app whose load sits at a
// replica-count boundary and counts scaling actions with and without the
// Welch-t-test confirmation.
func runBoundaryController(opts Options, disableTTest bool) (actions int, violation, cpus float64, err error) {
	spec := services.AppSpec{
		Name: "boundary",
		Services: []services.ServiceSpec{{
			Name: "api", Threads: 2048, CPUs: 1, InitialReplicas: 4,
			IngressCostMs: 0.1, IngressWindow: 32,
			Handlers: map[string][]services.Step{
				"req": services.Seq(services.Compute{MeanMs: 5, CV: 0.4}),
			},
		}},
		Classes: []services.ClassSpec{{Name: "req", Entry: "api", SLAPercentile: 99, SLAMillis: 60}},
	}
	// Threshold 30 rps/replica; offered load 119 rps → ceil flips 4 ↔ 5
	// with per-window Poisson noise.
	sol := &core.Solution{Choices: map[string]*core.Choice{
		"api": {
			Service:     "api",
			LPR:         map[string]float64{"req": 30},
			RateSamples: map[string][]float64{"req": {29.4, 29.8, 30.0, 30.2, 30.6}},
		},
	}}
	ctl := &boundaryController{sol: sol, cfg: core.ControllerConfig{Headroom: 1.0, DisableTTest: disableTTest}}
	r, err := Run(Scenario{
		Seed: opts.Seed + 80, Spec: spec, Mix: workload.Mix{"req": 1},
		Pattern: workload.Constant{Value: 119}, Manager: ctl,
		Warm: 2 * sim.Minute, Duration: opts.scaleTime(60*sim.Minute, 20*sim.Minute),
	})
	return ctl.actions, r.ViolationRate, r.AvgCPUs, err
}

// boundaryController is the bare resource controller on a fixed solution,
// ticked once a minute, counting the replica changes it makes.
type boundaryController struct {
	sol     *core.Solution
	cfg     core.ControllerConfig
	ctl     *core.Controller
	tick    *sim.Ticker
	actions int
}

func (b *boundaryController) Name() string { return "controller" }

func (b *boundaryController) Attach(app *services.App) {
	b.ctl = core.NewController(app, b.sol, b.cfg)
	api := app.Service("api")
	prev := api.Replicas()
	b.tick = app.Eng.Every(sim.Minute, func() {
		b.ctl.Tick()
		if r := api.Replicas(); r != prev {
			b.actions++
			prev = r
		}
	})
}

func (b *boundaryController) Detach() { b.tick.Stop() }

func (b *boundaryController) AvgDecisionMillis() float64 { return b.ctl.AvgDecisionMillis() }

// Render prints the three ablation tables.
func (r AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation 1 — percentile assignment in MIP (1):\n")
	fmt.Fprintf(&b, "  optimized budget DP: %8.1f CPUs\n", r.BudgetCPUs)
	if r.EqualSplitFeasible {
		fmt.Fprintf(&b, "  naive equal split:   %8.1f CPUs  (+%.1f%%)\n",
			r.EqualSplitCPUs, 100*(r.EqualSplitCPUs-r.BudgetCPUs)/r.BudgetCPUs)
	} else {
		b.WriteString("  naive equal split:   infeasible (cannot certify the SLAs)\n")
	}
	b.WriteString("\nAblation 2 — controller t-test under constant (noisy) load:\n")
	fmt.Fprintf(&b, "  with t-test:    %4d scaling actions  %5.1f%% violations  %7.1f CPUs\n",
		r.TTestActions, r.TTestViolation*100, r.TTestAvgCPUs)
	fmt.Fprintf(&b, "  without t-test: %4d scaling actions  %5.1f%% violations  %7.1f CPUs\n",
		r.NoTTestActions, r.NoTTestViolation*100, r.NoTTestAvgCPUs)
	b.WriteString("\nAblation 3 — backpressure-free exploration boundary:\n")
	fmt.Fprintf(&b, "  thresholds on:  %5.1f%% violations  %7.1f CPUs\n", r.ThresholdOnViolation*100, r.ThresholdOnCPUs)
	fmt.Fprintf(&b, "  thresholds off: %5.1f%% violations  %7.1f CPUs\n", r.ThresholdOffViolation*100, r.ThresholdOffCPUs)
	return b.String()
}
