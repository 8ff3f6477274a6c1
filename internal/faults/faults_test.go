package faults

import (
	"math"
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/services"
	"ursa/internal/sim"
)

// testSpec: frontend (5 ms) → backend (10 ms) over nested RPC, one replica
// each, all deterministic.
func testSpec() services.AppSpec {
	return services.AppSpec{
		Name: "faulty",
		Services: []services.ServiceSpec{
			{
				Name:            "frontend",
				Threads:         4,
				CPUs:            4,
				InitialReplicas: 1,
				Handlers: map[string][]services.Step{
					"get": services.Seq(
						services.Compute{MeanMs: 5, CV: -1},
						services.Call{Service: "backend", Mode: services.NestedRPC},
					),
				},
			},
			{
				Name:            "backend",
				Threads:         4,
				CPUs:            1,
				InitialReplicas: 1,
				Handlers: map[string][]services.Step{
					"get": services.Seq(services.Compute{MeanMs: 10, CV: -1}),
				},
			},
		},
		Classes: []services.ClassSpec{{Name: "get", Entry: "frontend", SLAPercentile: 99, SLAMillis: 100}},
	}
}

func TestEmptyScheduleIsInert(t *testing.T) {
	eng := sim.NewEngine(1)
	app := services.MustNewApp(eng, testSpec())
	before := eng.Pending()
	in := New(eng, app, nil, Schedule{})
	in.Start()
	if eng.Pending() != before {
		t.Fatalf("empty schedule scheduled events: %d → %d", before, eng.Pending())
	}
	if app.Net != nil {
		t.Fatal("empty schedule installed a net injector")
	}
	if len(in.Records) != 0 {
		t.Fatalf("records = %v", in.Records)
	}
}

func TestNodeFailEvictsAndRecovers(t *testing.T) {
	cl := cluster.New(cluster.BestFit, 8, 8)
	eng := sim.NewEngine(1)
	app, err := services.NewAppOnCluster(eng, testSpec(), cl)
	if err != nil {
		t.Fatal(err)
	}
	// BestFit packs frontend (4) and backend (1) onto node-0.
	n0 := cl.NodeByName("node-0")
	if n0.Used() != 5 {
		t.Fatalf("node-0 used = %v, want 5", n0.Used())
	}
	in := New(eng, app, cl, Schedule{
		NodeFails: []NodeFail{{Node: "node-0", At: 10 * sim.Millisecond, For: 100 * sim.Millisecond}},
	})
	in.Start()

	eng.RunUntil(50 * sim.Millisecond)
	if !n0.Down() {
		t.Fatal("node-0 not down mid-failure")
	}
	if in.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", in.Evicted)
	}
	if n0.Used() != 0 {
		t.Fatalf("node-0 still holds %v CPUs", n0.Used())
	}
	// Placements must skip the down node.
	if p, err := cl.Place(2); err != nil {
		t.Fatal(err)
	} else if p.Node.Name != "node-1" {
		t.Fatalf("placed on %s during failure, want node-1", p.Node.Name)
	}

	eng.RunUntil(200 * sim.Millisecond)
	if n0.Down() {
		t.Fatal("node-0 did not recover")
	}
	if len(in.Records) != 2 {
		t.Fatalf("records = %v", in.Records)
	}
}

func TestReplicaCrashRestartWithWarmup(t *testing.T) {
	eng := sim.NewEngine(1)
	app := services.MustNewApp(eng, testSpec())
	in := New(eng, app, nil, Schedule{
		ReplicaCrashes: []ReplicaCrash{{
			Service:      "backend",
			At:           10 * sim.Millisecond,
			RestartAfter: 50 * sim.Millisecond,
			Warmup:       500 * sim.Millisecond,
			WarmupFactor: 0.2,
		}},
	})
	in.Start()

	eng.RunUntil(20 * sim.Millisecond)
	be := app.Service("backend")
	if be.Replicas() != 0 {
		t.Fatalf("backend replicas = %d mid-crash, want 0", be.Replicas())
	}
	eng.RunUntil(100 * sim.Millisecond)
	if be.Replicas() != 1 {
		t.Fatalf("backend replicas = %d after restart, want 1", be.Replicas())
	}
	// During warm-up the 1-CPU backend runs at 0.2 cores: 10 ms → 50 ms.
	app.Inject("get")
	eng.RunUntil(sim.Second) // past warm-up
	app.Inject("get")
	eng.RunUntil(2 * sim.Second)
	lats := app.E2E.Class("get").Between(0, math.MaxInt64)
	if len(lats) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(lats))
	}
	if math.Abs(lats[0]-55) > 1e-6 { // 5 ms frontend + 50 ms derated backend
		t.Fatalf("warm-up latency = %v ms, want 55", lats[0])
	}
	if math.Abs(lats[1]-15) > 1e-6 {
		t.Fatalf("post-warm-up latency = %v ms, want 15", lats[1])
	}
}

func TestInterferenceSlowsResidentReplicas(t *testing.T) {
	cl := cluster.New(cluster.BestFit, 8)
	eng := sim.NewEngine(1)
	app, err := services.NewAppOnCluster(eng, testSpec(), cl)
	if err != nil {
		t.Fatal(err)
	}
	in := New(eng, app, cl, Schedule{
		Interference: []Interference{{Node: "node-0", At: 10 * sim.Millisecond, For: 200 * sim.Millisecond, Factor: 0.5}},
	})
	in.Start()

	eng.RunUntil(50 * sim.Millisecond)
	// Backend (1 CPU) now runs at 0.5 cores: 10 ms burst takes 20 ms; the
	// frontend (4 CPUs → 2) still runs its single 5 ms burst at full speed.
	app.Inject("get")
	eng.RunUntil(sim.Second) // interference cleared at 210 ms
	app.Inject("get")
	eng.RunUntil(2 * sim.Second)
	lats := app.E2E.Class("get").Between(0, math.MaxInt64)
	if len(lats) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(lats))
	}
	if math.Abs(lats[0]-25) > 1e-6 { // 5 + 20
		t.Fatalf("interfered latency = %v ms, want 25", lats[0])
	}
	if math.Abs(lats[1]-15) > 1e-6 {
		t.Fatalf("restored latency = %v ms, want 15", lats[1])
	}
}

func TestNetFaultDropsAreSeedDeterministic(t *testing.T) {
	run := func() (completed, failed, dropped int) {
		eng := sim.NewEngine(42)
		app := services.MustNewApp(eng, testSpec())
		app.SetResilience(services.ResiliencePolicy{TimeoutMs: 30, MaxRetries: 2, BackoffBaseMs: 5, BackoffMaxMs: 20, JitterFrac: 0.3})
		in := New(eng, app, nil, Schedule{
			NetFaults: []NetFault{{Src: "frontend", Dst: "backend", At: 0, For: sim.Minute, DropProb: 0.5}},
		})
		in.Start()
		rng := eng.RNG("load")
		var arrive func()
		arrive = func() {
			app.Inject("get")
			eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/50), arrive)
		}
		eng.Schedule(0, arrive)
		eng.RunUntil(30 * sim.Second)
		return app.CompletedJobs(), app.FailedJobs(), in.Dropped
	}
	c1, f1, d1 := run()
	c2, f2, d2 := run()
	if c1 != c2 || f1 != f2 || d1 != d2 {
		t.Fatalf("nondeterministic: run1=(%d,%d,%d) run2=(%d,%d,%d)", c1, f1, d1, c2, f2, d2)
	}
	if d1 == 0 {
		t.Fatal("no drops injected")
	}
	if c1 == 0 {
		t.Fatal("no jobs survived despite retries")
	}
	if f1 == 0 {
		t.Fatal("expected some jobs to exhaust retries at 50% drop rate")
	}
}
