package services

import (
	"math"
	"testing"

	"ursa/internal/sim"
	"ursa/internal/stats"
)

// oneTierSpec builds a single-service app: class "get" burns exactly 10 ms.
func oneTierSpec(replicas int) AppSpec {
	return AppSpec{
		Name: "one-tier",
		Services: []ServiceSpec{{
			Name:            "api",
			Threads:         4,
			CPUs:            4,
			InitialReplicas: replicas,
			Handlers: map[string][]Step{
				"get": Seq(Compute{MeanMs: 10, CV: -1}),
			},
		}},
		Classes: []ClassSpec{{Name: "get", Entry: "api", SLAPercentile: 99, SLAMillis: 100}},
	}
}

func TestSingleRequestLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	app := MustNewApp(eng, oneTierSpec(1))
	app.Inject("get")
	eng.RunUntil(sim.Second)
	lats := app.E2E.Class("get").Between(0, math.MaxInt64)
	if len(lats) != 1 {
		t.Fatalf("completed %d jobs, want 1", len(lats))
	}
	if math.Abs(lats[0]-10) > 1e-6 {
		t.Fatalf("latency = %vms, want 10ms", lats[0])
	}
	if app.CompletedJobs() != 1 || app.InjectedJobs != 1 {
		t.Fatalf("job accounting: injected=%d completed=%d", app.InjectedJobs, app.CompletedJobs())
	}
}

func TestLowLoadLatencyNearServiceTime(t *testing.T) {
	eng := sim.NewEngine(2)
	app := MustNewApp(eng, oneTierSpec(2))
	rng := eng.RNG("load")
	var arrive func()
	arrive = func() {
		app.Inject("get")
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/20), arrive) // 20 RPS
	}
	eng.Schedule(0, arrive)
	eng.RunUntil(2 * sim.Minute)
	lats := app.E2E.Class("get").Between(0, math.MaxInt64)
	p50 := stats.Percentile(lats, 50)
	if math.Abs(p50-10) > 1 {
		t.Fatalf("p50 at low load = %vms, want ≈10ms", p50)
	}
}

func TestQueueingLatencyGrowsWithLoad(t *testing.T) {
	// Capacity of 1 replica: 4 threads/4 cores and 10 ms bursts → 400 RPS.
	// Measure p99 at 40% vs 95% of capacity; queueing must inflate the tail.
	p99At := func(rps float64) float64 {
		eng := sim.NewEngine(3)
		app := MustNewApp(eng, oneTierSpec(1))
		rng := eng.RNG("load")
		var arrive func()
		arrive = func() {
			app.Inject("get")
			eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/rps), arrive)
		}
		eng.Schedule(0, arrive)
		eng.RunUntil(3 * sim.Minute)
		return stats.Percentile(app.E2E.Class("get").Between(0, math.MaxInt64), 99)
	}
	lo, hi := p99At(160), p99At(380)
	if hi < lo*1.5 {
		t.Fatalf("p99 did not grow with load: %.2fms @160rps vs %.2fms @380rps", lo, hi)
	}
}

func TestMoreReplicasReduceLatency(t *testing.T) {
	run := func(replicas int) float64 {
		eng := sim.NewEngine(4)
		app := MustNewApp(eng, oneTierSpec(replicas))
		rng := eng.RNG("load")
		var arrive func()
		arrive = func() {
			app.Inject("get")
			eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/350), arrive)
		}
		eng.Schedule(0, arrive)
		eng.RunUntil(2 * sim.Minute)
		return stats.Percentile(app.E2E.Class("get").Between(0, math.MaxInt64), 99)
	}
	one, four := run(1), run(4)
	if four > one*0.8 {
		t.Fatalf("scaling out did not help: 1 rep p99=%.2f, 4 rep p99=%.2f", one, four)
	}
}

func TestScaleOutAndIn(t *testing.T) {
	eng := sim.NewEngine(5)
	app := MustNewApp(eng, oneTierSpec(2))
	svc := app.Service("api")
	if svc.Replicas() != 2 || svc.AllocatedCPUs() != 8 {
		t.Fatalf("initial: replicas=%d cpus=%v", svc.Replicas(), svc.AllocatedCPUs())
	}
	svc.SetReplicas(5)
	if svc.Replicas() != 5 || svc.AllocatedCPUs() != 20 {
		t.Fatalf("after out: replicas=%d cpus=%v", svc.Replicas(), svc.AllocatedCPUs())
	}
	svc.SetReplicas(1)
	if svc.Replicas() != 1 {
		t.Fatalf("after in: replicas=%d", svc.Replicas())
	}
	// Idle draining replicas retire immediately → allocation drops.
	if svc.AllocatedCPUs() != 4 {
		t.Fatalf("after in: cpus=%v, want 4", svc.AllocatedCPUs())
	}
}

func TestScaleInDrainsGracefully(t *testing.T) {
	eng := sim.NewEngine(6)
	app := MustNewApp(eng, oneTierSpec(2))
	svc := app.Service("api")
	// Occupy workers with long bursts on both replicas.
	long := AppSpec{}
	_ = long
	for i := 0; i < 8; i++ {
		app.Inject("get")
	}
	svc.SetReplicas(1)
	// Draining replica still holds work → allocation not yet reduced.
	if svc.AllocatedCPUs() != 8 {
		t.Fatalf("draining replica released early: cpus=%v", svc.AllocatedCPUs())
	}
	eng.RunUntil(sim.Second)
	if svc.AllocatedCPUs() != 4 {
		t.Fatalf("drained replica not retired: cpus=%v", svc.AllocatedCPUs())
	}
	if app.CompletedJobs() != 8 {
		t.Fatalf("lost jobs during drain: %d/8", app.CompletedJobs())
	}
}

func TestScaleUpReactivatesDraining(t *testing.T) {
	eng := sim.NewEngine(7)
	app := MustNewApp(eng, oneTierSpec(3))
	svc := app.Service("api")
	for i := 0; i < 12; i++ {
		app.Inject("get") // keep replicas busy so draining lingers
	}
	svc.SetReplicas(1)
	svc.SetReplicas(3)
	if svc.Replicas() != 3 {
		t.Fatalf("replicas = %d, want 3 (reactivated)", svc.Replicas())
	}
	if svc.AllocatedCPUs() != 12 {
		t.Fatalf("cpus = %v, want 12", svc.AllocatedCPUs())
	}
}

func TestSetReplicasFloorsAtOne(t *testing.T) {
	eng := sim.NewEngine(8)
	app := MustNewApp(eng, oneTierSpec(2))
	svc := app.Service("api")
	svc.SetReplicas(0)
	if svc.Replicas() != 1 {
		t.Fatalf("replicas = %d, want 1", svc.Replicas())
	}
}

func TestMaxReplicasCap(t *testing.T) {
	spec := oneTierSpec(1)
	spec.Services[0].MaxReplicas = 3
	eng := sim.NewEngine(9)
	app := MustNewApp(eng, spec)
	svc := app.Service("api")
	svc.SetReplicas(10)
	if svc.Replicas() != 3 {
		t.Fatalf("replicas = %d, want cap 3", svc.Replicas())
	}
}

func TestStartupDelay(t *testing.T) {
	spec := oneTierSpec(1)
	spec.Services[0].StartupDelaySec = 5
	eng := sim.NewEngine(10)
	app := MustNewApp(eng, spec)
	svc := app.Service("api")
	svc.SetReplicas(2)
	if svc.Replicas() != 2 { // pending start counts toward desired
		t.Fatalf("replicas = %d, want 2 (incl. pending)", svc.Replicas())
	}
	if svc.AllocatedCPUs() != 4 { // but not yet allocated
		t.Fatalf("cpus = %v, want 4 before startup", svc.AllocatedCPUs())
	}
	eng.RunUntil(6 * sim.Second)
	if svc.AllocatedCPUs() != 8 {
		t.Fatalf("cpus = %v, want 8 after startup", svc.AllocatedCPUs())
	}
}

func TestPriorityOrdering(t *testing.T) {
	// One replica, one thread: saturate with low-priority work, then inject
	// one high-priority request — it must overtake all queued low-priority.
	spec := AppSpec{
		Name: "prio",
		Services: []ServiceSpec{{
			Name: "worker", Threads: 1, CPUs: 1, InitialReplicas: 1,
			Handlers: map[string][]Step{
				"hi": Seq(Compute{MeanMs: 10, CV: -1}),
				"lo": Seq(Compute{MeanMs: 10, CV: -1}),
			},
		}},
		Classes: []ClassSpec{
			{Name: "hi", Entry: "worker", Priority: 0},
			{Name: "lo", Entry: "worker", Priority: 1},
		},
	}
	eng := sim.NewEngine(11)
	app := MustNewApp(eng, spec)
	for i := 0; i < 20; i++ {
		app.Inject("lo")
	}
	app.Inject("hi")
	eng.RunUntil(sim.Minute)
	// hi arrives last but runs right after the single in-flight lo request:
	// latency ≈ 10ms (remaining) + 10ms own ≈ 20ms, far below 210ms FIFO.
	hi := app.E2E.Class("hi").Between(0, math.MaxInt64)
	if len(hi) != 1 || hi[0] > 25 {
		t.Fatalf("high-priority latency = %v, want ≈20ms", hi)
	}
}

func TestArrivalCountersPerClass(t *testing.T) {
	eng := sim.NewEngine(12)
	app := MustNewApp(eng, oneTierSpec(1))
	for i := 0; i < 30; i++ {
		app.Inject("get")
	}
	eng.RunUntil(sim.Minute)
	svc := app.Service("api")
	if got := svc.Arrivals["get"].Total(0, sim.Minute); got != 30 {
		t.Fatalf("class arrivals = %v", got)
	}
	if got := svc.ArrivalsAll.Total(0, sim.Minute); got != 30 {
		t.Fatalf("total arrivals = %v", got)
	}
}

func TestUtilizationSampling(t *testing.T) {
	// 1 replica × 4 CPUs; 100 RPS × 10ms = 1 core-second/second → util 25%.
	eng := sim.NewEngine(13)
	app := MustNewApp(eng, oneTierSpec(1))
	rng := eng.RNG("load")
	var arrive func()
	arrive = func() {
		app.Inject("get")
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/100), arrive)
	}
	eng.Schedule(0, arrive)
	eng.RunUntil(5 * sim.Minute)
	samples := app.Service("api").UtilSamples.Between(0, math.MaxInt64)
	if len(samples) < 4 {
		t.Fatalf("got %d utilisation samples", len(samples))
	}
	avg := stats.Mean(samples)
	if math.Abs(avg-0.25) > 0.05 {
		t.Fatalf("avg utilisation = %v, want ≈0.25", avg)
	}
}

func TestCPUFactorThrottlingInflatesLatency(t *testing.T) {
	eng := sim.NewEngine(14)
	app := MustNewApp(eng, oneTierSpec(1))
	svc := app.Service("api")
	rng := eng.RNG("load")
	var arrive func()
	arrive = func() {
		app.Inject("get")
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/100), arrive)
	}
	eng.Schedule(0, arrive)
	eng.RunUntil(2 * sim.Minute)
	before := app.E2E.Class("get").PercentileBetween(0, 2*sim.Minute, 99)
	svc.SetCPUFactor(0.25) // 4 cores → 1 core; demand 1 cs/s ≈ saturation
	eng.RunUntil(4 * sim.Minute)
	after := app.E2E.Class("get").PercentileBetween(2*sim.Minute, 4*sim.Minute, 99)
	if after < before*2 {
		t.Fatalf("throttling had no effect: before p99=%.2f after p99=%.2f", before, after)
	}
}

func TestAllocIntegral(t *testing.T) {
	eng := sim.NewEngine(15)
	app := MustNewApp(eng, oneTierSpec(2)) // 8 CPUs allocated
	eng.RunUntil(10 * sim.Second)
	got := app.AllocIntegralCPUSeconds()
	if math.Abs(got-80) > 1e-6 {
		t.Fatalf("alloc integral = %v, want 80 cpu·s", got)
	}
	if app.TotalAllocatedCPUs() != 8 {
		t.Fatalf("total allocated = %v", app.TotalAllocatedCPUs())
	}
}
