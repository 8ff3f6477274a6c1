package core

import (
	"reflect"
	"strings"
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// miniApp is a 2-service chain with one class, light enough to explore fast.
func miniApp() services.AppSpec {
	return services.AppSpec{
		Name: "mini",
		Services: []services.ServiceSpec{
			{
				Name: "front", Threads: 4096, Daemons: 64, CPUs: 1,
				IngressCostMs: 0.1, IngressWindow: 32, InitialReplicas: 2,
				Handlers: map[string][]services.Step{
					"req": services.Seq(services.Compute{MeanMs: 1.5, CV: 0.4},
						services.Call{Service: "back", Mode: services.NestedRPC}),
				},
			},
			{
				Name: "back", Threads: 4096, Daemons: 64, CPUs: 1,
				IngressCostMs: 0.1, IngressWindow: 32, InitialReplicas: 2,
				Handlers: map[string][]services.Step{
					"req": services.Seq(services.Compute{MeanMs: 4.0, CV: 0.4}),
				},
			},
		},
		Classes: []services.ClassSpec{
			{Name: "req", Entry: "front", SLAPercentile: 99, SLAMillis: 60},
		},
	}
}

func miniExplorer() *Explorer {
	return &Explorer{
		Spec:     miniApp(),
		Mix:      workload.Mix{"req": 1},
		TotalRPS: 200,
		Thresholds: map[string]float64{
			"front": 0.7,
			"back":  0.7,
		},
	}
}

func fastExploreConfig() ExploreConfig {
	return ExploreConfig{
		WindowsPerPoint:  4,
		Window:           20 * sim.Second,
		SLAViolationFreq: 0.25,
		Seed:             11,
	}
}

func TestServiceClassLoads(t *testing.T) {
	e := miniExplorer()
	loads := e.ServiceClassLoads()
	if loads["front"]["req"] != 200 || loads["back"]["req"] != 200 {
		t.Fatalf("loads = %+v", loads)
	}
}

func TestServiceClassLoadsWithSpawnsAndVisits(t *testing.T) {
	spec := services.AppSpec{
		Name: "spawny",
		Services: []services.ServiceSpec{
			{Name: "a", Handlers: map[string][]services.Step{
				"main": services.Seq(
					services.Compute{MeanMs: 1},
					services.Call{Service: "b", Mode: services.NestedRPC},
					services.Call{Service: "b", Mode: services.NestedRPC},
					services.Spawn{Service: "w", Class: "derived"},
				),
			}},
			{Name: "b", Handlers: map[string][]services.Step{"main": services.Seq(services.Compute{MeanMs: 1})}},
			{Name: "w", Handlers: map[string][]services.Step{"derived": services.Seq(services.Compute{MeanMs: 5})}},
		},
		Classes: []services.ClassSpec{
			{Name: "main", Entry: "a", SLAPercentile: 99, SLAMillis: 100},
			{Name: "derived", Entry: "w", Derived: true, SLAPercentile: 99, SLAMillis: 100},
		},
	}
	e := &Explorer{Spec: spec, Mix: workload.Mix{"main": 1}, TotalRPS: 50}
	loads := e.ServiceClassLoads()
	if loads["b"]["main"] != 100 { // visited twice per request
		t.Fatalf("b load = %v, want 100", loads["b"]["main"])
	}
	if loads["w"]["derived"] != 50 { // one spawn per request
		t.Fatalf("w load = %v, want 50", loads["w"]["derived"])
	}
}

func TestGenerousReplicas(t *testing.T) {
	e := miniExplorer()
	reps := e.GenerousReplicas(0.25)
	// back: 200 rps × 3.1ms (incl ingress) = 0.62 cs/s; /(2×0.25) → ≥2.
	if reps["back"] < 2 {
		t.Fatalf("generous replicas = %+v", reps)
	}
}

func TestExploreServiceRecordsMonotonicLPR(t *testing.T) {
	e := miniExplorer()
	p, err := e.ExploreService("back", fastExploreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Points) < 2 {
		t.Fatalf("exploration found %d points, want ≥2", len(p.Points))
	}
	// Points ascend in LPR; latency tails should not shrink as LPR grows.
	first, last := p.Points[0], p.Points[len(p.Points)-1]
	if first.MaxLPR() >= last.MaxLPR() {
		t.Fatalf("LPR not ascending: %v → %v", first.MaxLPR(), last.MaxLPR())
	}
	if last.LatencyAt("req", 99) < first.LatencyAt("req", 99)*0.8 {
		t.Fatalf("p99 fell as load-per-replica grew: %.2f → %.2f",
			first.LatencyAt("req", 99), last.LatencyAt("req", 99))
	}
	if first.Util >= last.Util {
		t.Fatalf("utilisation not increasing with LPR: %.2f → %.2f", first.Util, last.Util)
	}
	// Early-stop: every recorded point respects the backpressure threshold.
	for _, pt := range p.Points {
		if pt.Util >= 0.7 {
			t.Fatalf("recorded point beyond backpressure threshold: util=%.2f", pt.Util)
		}
	}
	if p.Samples == 0 || p.ExploreTime == 0 {
		t.Fatalf("accounting empty: %+v", p)
	}
}

func TestExploreAllSummary(t *testing.T) {
	e := miniExplorer()
	profiles, sum, err := e.ExploreAll(fastExploreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("profiles = %v", len(profiles))
	}
	if sum.Samples != profiles["front"].Samples+profiles["back"].Samples {
		t.Fatal("sample accounting wrong")
	}
	if sum.WallTime > sum.TotalTime {
		t.Fatal("wall time cannot exceed total time")
	}
	if sum.WallTime != maxTime(profiles["front"].ExploreTime, profiles["back"].ExploreTime) {
		t.Fatal("wall time should be the max per-service time (parallel exploration)")
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func TestExploreUnknownService(t *testing.T) {
	e := miniExplorer()
	if _, err := e.ExploreService("ghost", fastExploreConfig()); err == nil {
		t.Fatal("expected error for unknown service")
	}
}

// TestExploreThenOptimizeEndToEnd drives the full pipeline: explore both
// services, solve the model, and check the solution is coherent.
func TestExploreThenOptimizeEndToEnd(t *testing.T) {
	e := miniExplorer()
	profiles, _, err := e.ExploreAll(fastExploreConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{
		Profiles: profiles,
		Targets:  TargetsFor(e.Spec),
		Loads:    e.ServiceClassLoads(),
	}
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.BoundMs["req"] > 60 {
		t.Fatalf("certified bound %.1fms exceeds the 60ms SLA", sol.BoundMs["req"])
	}
	if sol.TotalCPUs <= 0 {
		t.Fatal("no resources allocated")
	}
	for _, svc := range []string{"front", "back"} {
		if sol.Choices[svc] == nil || sol.Choices[svc].LPR["req"] <= 0 {
			t.Fatalf("missing choice for %s", svc)
		}
	}
}

// chainExplorer is a four-tier nested-RPC chain, so a four-worker fan-out
// has one service per worker.
func chainExplorer() *Explorer {
	names := []string{"t0", "t1", "t2", "t3"}
	spec := services.AppSpec{
		Name:    "chain",
		Classes: []services.ClassSpec{{Name: "req", Entry: "t0", SLAPercentile: 99, SLAMillis: 80}},
	}
	thresholds := map[string]float64{}
	for i, name := range names {
		steps := services.Seq(services.Compute{MeanMs: 1 + float64(i), CV: 0.4})
		if i+1 < len(names) {
			steps = append(steps, services.Call{Service: names[i+1], Mode: services.NestedRPC})
		}
		spec.Services = append(spec.Services, services.ServiceSpec{
			Name: name, Threads: 4096, Daemons: 64, CPUs: 1,
			IngressCostMs: 0.1, IngressWindow: 32, InitialReplicas: 2,
			Handlers: map[string][]services.Step{"req": steps},
		})
		thresholds[name] = 0.7
	}
	return &Explorer{Spec: spec, Mix: workload.Mix{"req": 1}, TotalRPS: 150, Thresholds: thresholds}
}

// TestExploreAllWorkerCountInvariant checks that the parallel fan-out merges
// in service order: one worker and four workers return deeply equal profiles
// and the same Table V accounting, and when two services fail the
// lower-indexed failure is the one reported.
func TestExploreAllWorkerCountInvariant(t *testing.T) {
	e := chainExplorer()
	seqProfiles, seqSum, err := e.exploreAll(fastExploreConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parProfiles, parSum, err := e.exploreAll(fastExploreConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parProfiles) != len(e.Spec.Services) {
		t.Fatalf("profiles = %d, want %d", len(parProfiles), len(e.Spec.Services))
	}
	if !reflect.DeepEqual(seqProfiles, parProfiles) {
		t.Fatal("profiles differ between 1 and 4 workers")
	}
	if seqSum != parSum {
		t.Fatalf("summary differs: 1 worker %+v, 4 workers %+v", seqSum, parSum)
	}

	// A threshold no point can stay under makes exploration record nothing.
	e.Thresholds["t1"], e.Thresholds["t3"] = 1e-6, 1e-6
	for _, workers := range []int{1, 4} {
		_, _, err := e.exploreAll(fastExploreConfig(), workers)
		if err == nil || !strings.Contains(err.Error(), "exploring t1:") {
			t.Fatalf("%d workers: err = %v, want t1's failure", workers, err)
		}
	}
}
