package core

import (
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/stats"
	"ursa/internal/workload"
)

// TestManagerEndToEnd drives the full Ursa pipeline on the mini app:
// exploration → optimization → deployment under a diurnal load, checking
// that the system scales with load and holds the SLA.
func TestManagerEndToEnd(t *testing.T) {
	e := miniExplorer()
	profiles, _, err := e.ExploreAll(fastExploreConfig())
	if err != nil {
		t.Fatal(err)
	}

	eng := sim.NewEngine(99)
	app := services.MustNewApp(eng, e.Spec)
	mgr := NewManager(e.Spec, profiles)
	mix := workload.Mix{"req": 1}
	if err := mgr.Run(app, mix, 150, ControllerConfig{}, AnomalyConfig{}); err != nil {
		t.Fatal(err)
	}
	gen := workload.New(eng, app, workload.Diurnal{Base: 80, Peak: 400, Period: 40 * sim.Minute}, mix)
	gen.Start()

	minReps, maxReps := 1<<30, 0
	probe := eng.Every(sim.Minute, func() {
		r := app.Service("back").Replicas()
		if r < minReps {
			minReps = r
		}
		if r > maxReps {
			maxReps = r
		}
	})
	eng.RunUntil(40 * sim.Minute)
	probe.Stop()
	mgr.Stop()

	if maxReps <= minReps {
		t.Fatalf("no scaling under diurnal load: replicas stayed at %d", minReps)
	}

	// SLA violation rate over per-minute windows must be low.
	rec := app.E2E.Class("req")
	total, violated := 0, 0
	for w := 2 * sim.Minute; w < 40*sim.Minute; w += sim.Minute {
		vals := rec.Between(w, w+sim.Minute)
		if len(vals) == 0 {
			continue
		}
		total++
		if stats.Percentile(vals, 99) > 60 {
			violated++
		}
	}
	if total == 0 {
		t.Fatal("no traffic measured")
	}
	rate := float64(violated) / float64(total)
	if rate > 0.15 {
		t.Fatalf("SLA violation rate %.1f%% too high under Ursa", rate*100)
	}

	if mgr.OptimizeCount == 0 || mgr.OptimizeSeconds <= 0 {
		t.Fatal("optimizer accounting missing")
	}
	if mgr.Controller.DecisionCount == 0 {
		t.Fatal("controller never ticked")
	}
}

// TestManagerRecalculateOnSkew checks the anomaly-recovery path: a skewed
// mix triggers recalculation with live loads.
func TestManagerRecalculateOnSkew(t *testing.T) {
	spec := twoClassApp()
	e := &Explorer{
		Spec:       spec,
		Mix:        workload.Mix{"a": 1, "b": 1},
		TotalRPS:   100,
		Thresholds: map[string]float64{"api": 0.7},
	}
	profiles, _, err := e.ExploreAll(fastExploreConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(100)
	app := services.MustNewApp(eng, spec)
	mgr := NewManager(spec, profiles)
	if err := mgr.Run(app, workload.Mix{"a": 1, "b": 1}, 100,
		ControllerConfig{}, AnomalyConfig{Interval: 2 * sim.Minute, RatioDeviation: 1.4}); err != nil {
		t.Fatal(err)
	}
	// Deploy with a heavily skewed live mix instead.
	gen := workload.New(eng, app, workload.Constant{Value: 100}, workload.Mix{"a": 9, "b": 1})
	gen.Start()
	eng.RunUntil(15 * sim.Minute)
	mgr.Stop()
	if mgr.OptimizeCount < 2 {
		t.Fatalf("skewed mix did not trigger recalculation: optimize count = %d", mgr.OptimizeCount)
	}
	if len(mgr.Detector.Events) == 0 {
		t.Fatal("no anomaly events recorded")
	}
}

func TestOptimizeIncrementalFastPath(t *testing.T) {
	mgr := &Manager{
		Profiles: twoServiceModel(150).Profiles,
		Targets:  twoServiceModel(150).Targets,
	}
	loads := map[string]map[string]float64{"a": {"req": 100}, "b": {"req": 100}}
	full, err := mgr.Optimize(loads)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.FastResolveCount != 0 {
		t.Fatalf("first solve must be full, FastResolveCount=%d", mgr.FastResolveCount)
	}

	// Loads move by 4% (< ε): fast path, same picks and bounds, refreshed
	// costs.
	moved := map[string]map[string]float64{"a": {"req": 104}, "b": {"req": 104}}
	fast, err := mgr.Optimize(moved)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.FastResolveCount != 1 {
		t.Fatalf("expected fast-path hit, FastResolveCount=%d", mgr.FastResolveCount)
	}
	ref, err := (&Model{Profiles: mgr.Profiles, Targets: mgr.Targets, Loads: moved}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if fast.TotalCPUs != ref.TotalCPUs {
		t.Fatalf("fast-path TotalCPUs %v != full solve %v", fast.TotalCPUs, ref.TotalCPUs)
	}
	for name, ch := range ref.Choices {
		got := fast.Choices[name]
		if got == nil || got.PointIndex != ch.PointIndex || got.CostCPUs != ch.CostCPUs {
			t.Fatalf("fast-path choice %s = %+v, want %+v", name, got, ch)
		}
	}
	if fast.BoundMs["req"] != full.BoundMs["req"] {
		t.Fatalf("fast path changed the certified bound: %v vs %v", fast.BoundMs["req"], full.BoundMs["req"])
	}

	// Loads move by 50% (≥ ε): full solve again.
	big := map[string]map[string]float64{"a": {"req": 150}, "b": {"req": 150}}
	if _, err := mgr.Optimize(big); err != nil {
		t.Fatal(err)
	}
	if mgr.FastResolveCount != 1 {
		t.Fatalf("large move must miss the fast path, FastResolveCount=%d", mgr.FastResolveCount)
	}

	// A changed support set (new loaded class) forces a full solve.
	if mgr.lastSol == nil {
		t.Fatal("full solve did not refresh the incumbent")
	}
	withGhost := map[string]map[string]float64{"a": {"req": 150, "ghost": 1}, "b": {"req": 150}}
	if _, err := mgr.Optimize(withGhost); err == nil {
		// The ghost class has no explored LPR entry, so the model errors —
		// which is precisely why support changes must not take the fast path.
		t.Fatal("expected full solve to reject the unexplored class")
	}
	if mgr.FastResolveCount != 1 {
		t.Fatalf("support change must miss the fast path, FastResolveCount=%d", mgr.FastResolveCount)
	}

	// A swapped profile pointer invalidates the incumbent.
	loads2 := map[string]map[string]float64{"a": {"req": 150}, "b": {"req": 150}}
	if _, err := mgr.Optimize(loads2); err != nil { // re-establish incumbent
		t.Fatal(err)
	}
	mgr.Profiles["a"] = mgr.Profiles["a"].Clone()
	if _, err := mgr.Optimize(loads2); err != nil {
		t.Fatal(err)
	}
	if mgr.FastResolveCount != 1 {
		t.Fatalf("profile swap must miss the fast path, FastResolveCount=%d", mgr.FastResolveCount)
	}
}

// TestNewManagerFastPathDefaultOn pins the default: managers built by
// NewManager serve steady-state re-solves from the incremental path, and
// fall back to a full solve past ε drift.
func TestNewManagerFastPathDefaultOn(t *testing.T) {
	m := twoServiceModel(150)
	mgr := NewManager(services.AppSpec{}, m.Profiles)
	mgr.Targets = m.Targets
	loads := map[string]map[string]float64{"a": {"req": 100}, "b": {"req": 100}}
	if _, err := mgr.Optimize(loads); err != nil {
		t.Fatal(err)
	}
	// Within ε: served incrementally.
	drift := map[string]map[string]float64{"a": {"req": 102}, "b": {"req": 99}}
	if _, err := mgr.Optimize(drift); err != nil {
		t.Fatal(err)
	}
	if mgr.FastResolveCount != 1 {
		t.Fatalf("within-ε re-solve must hit the fast path, FastResolveCount=%d", mgr.FastResolveCount)
	}
	// Past ε: full solve fallback.
	jump := map[string]map[string]float64{"a": {"req": 150}, "b": {"req": 99}}
	if _, err := mgr.Optimize(jump); err != nil {
		t.Fatal(err)
	}
	if mgr.FastResolveCount != 1 || mgr.OptimizeCount != 3 {
		t.Fatalf("past-ε re-solve must fall back to a full solve: fast=%d total=%d",
			mgr.FastResolveCount, mgr.OptimizeCount)
	}
}

// TestManagerReplacesEvictedReplicas drives the crash-recovery path: a node
// failure evicts replicas mid-run and the manager must re-place them
// immediately via the OnEviction hook, not wait for drift detection.
func TestManagerReplacesEvictedReplicas(t *testing.T) {
	e := miniExplorer()
	profiles, _, err := e.ExploreAll(fastExploreConfig())
	if err != nil {
		t.Fatal(err)
	}

	eng := sim.NewEngine(7)
	cl := cluster.New(cluster.WorstFit, 16, 16)
	app, err := services.NewAppOnCluster(eng, e.Spec, cl)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(e.Spec, profiles)
	if err := mgr.Run(app, workload.Mix{"req": 1}, 150, ControllerConfig{}, AnomalyConfig{}); err != nil {
		t.Fatal(err)
	}
	gen := workload.New(eng, app, workload.Constant{Value: 150}, workload.Mix{"req": 1})
	gen.Start()

	eng.RunUntil(5 * sim.Minute)
	before := app.Service("front").Replicas() + app.Service("back").Replicas()
	n0 := cl.NodeByName("node-0")
	var evicted int
	eng.Schedule(0, func() {
		n0.SetDown(true)
		for _, ev := range app.EvictNode(n0) {
			evicted += ev.Replicas
		}
	})
	eng.RunUntil(5*sim.Minute + sim.Second)
	if evicted == 0 {
		t.Fatal("node failure evicted nothing; test needs replicas on node-0")
	}
	after := app.Service("front").Replicas() + app.Service("back").Replicas()
	if after < before {
		t.Fatalf("manager did not re-place evicted capacity: %d replicas before, %d after (%d evicted)",
			before, after, evicted)
	}
	for _, n := range cl.Nodes() {
		if n.Down() && n.Used() > 0 {
			t.Fatalf("down node %s still holds %v CPUs", n.Name, n.Used())
		}
	}
	mgr.Stop()
	if app.OnEviction != nil {
		t.Fatal("Stop did not detach the eviction hook")
	}
}
