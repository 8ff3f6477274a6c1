package services

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"ursa/internal/sim"
)

// kitchenSinkSpec exercises every step mode the frame machine implements:
// Compute (stochastic and deterministic), fast-path nested RPC with and
// without an ingress window, event RPC through a bounded daemon pool, MQ,
// Spawn of a derived class, and nested Par.
func kitchenSinkSpec() AppSpec {
	return AppSpec{
		Name: "kitchen-sink",
		Services: []ServiceSpec{
			{
				Name: "front", Threads: 16, CPUs: 4, InitialReplicas: 2,
				Handlers: map[string][]Step{
					"mixed": Seq(
						Compute{MeanMs: 2, CV: 0.5},
						Par{Branches: [][]Step{
							Seq(Call{Service: "mid", Mode: NestedRPC}),
							Seq(Compute{MeanMs: 1, CV: -1}, Call{Service: "gated", Mode: NestedRPC, Class: "side"}),
						}},
						Call{Service: "events", Mode: EventRPC, Class: "evt"},
						Call{Service: "mq", Mode: MQ, Class: "msg"},
						Compute{MeanMs: 0.5, CV: 1},
					),
					"quick": Seq(Compute{MeanMs: 1, CV: 0.3}, Spawn{Service: "mq", Class: "derived"}),
				},
			},
			{
				Name: "mid", Threads: 16, CPUs: 4, InitialReplicas: 2, Daemons: 2,
				Handlers: map[string][]Step{
					"mixed": Seq(Compute{MeanMs: 3, CV: 0.7}, Call{Service: "leaf", Mode: NestedRPC}),
				},
			},
			{
				Name: "gated", Threads: 8, CPUs: 2, InitialReplicas: 1,
				IngressCostMs: 0.1, IngressWindow: 4,
				Handlers: map[string][]Step{
					"side": Seq(Compute{MeanMs: 2, CV: 0.4}),
				},
			},
			{
				Name: "leaf", Threads: 16, CPUs: 2, InitialReplicas: 2,
				Handlers: map[string][]Step{
					"mixed": Seq(Compute{MeanMs: 1.5, CV: 0.6}),
				},
			},
			{
				Name: "events", Threads: 8, CPUs: 2, InitialReplicas: 1, Daemons: 2,
				Handlers: map[string][]Step{
					"evt": Seq(Compute{MeanMs: 4, CV: 0.5}),
				},
			},
			{
				Name: "mq", Threads: 4, CPUs: 2, InitialReplicas: 1,
				Handlers: map[string][]Step{
					"msg":     Seq(Compute{MeanMs: 2, CV: 0.5}),
					"derived": Seq(Compute{MeanMs: 1, CV: -1}),
				},
			},
		},
		Classes: []ClassSpec{
			{Name: "mixed", Entry: "front", SLAPercentile: 99, SLAMillis: 200},
			{Name: "quick", Entry: "front", Priority: 1, SLAPercentile: 95, SLAMillis: 50},
			{Name: "side", Entry: "gated", Derived: true, SLAPercentile: 99, SLAMillis: 100},
			{Name: "evt", Entry: "events", Derived: true, SLAPercentile: 99, SLAMillis: 100},
			{Name: "msg", Entry: "mq", Derived: true, SLAPercentile: 99, SLAMillis: 500},
			{Name: "derived", Entry: "mq", Derived: true, SLAPercentile: 99, SLAMillis: 500},
		},
	}
}

// frameScenario runs the kitchen-sink app for 5 simulated minutes under a
// deterministic Poisson load and returns a behaviour fingerprint: event
// counts, job accounting, and per-class / per-tier latency quantiles. faults
// optionally enables resilience + network faults and a mid-run replica
// crash.
func frameScenario(seed int64, faults bool) string {
	eng := sim.NewEngine(seed)
	app := MustNewApp(eng, kitchenSinkSpec())
	if faults {
		app.SetResilience(ResiliencePolicy{TimeoutMs: 100, MaxRetries: 2, BackoffBaseMs: 5, BackoffMaxMs: 20, JitterFrac: 0.2})
		app.Net = &delayNet{delays: []sim.Time{2 * sim.Millisecond, 0, 5 * sim.Millisecond, 0, 0, 3 * sim.Millisecond}}
		eng.Schedule(2*sim.Minute, func() { app.Service("mid").CrashReplica(0) })
		eng.Schedule(2*sim.Minute+30*sim.Second, func() { app.Service("mid").SetReplicas(2) })
	}
	// Deterministic open-loop arrivals, independent of the workload package
	// (this pins services-layer behaviour in isolation).
	rng := rand.New(rand.NewSource(seed * 7919))
	var arrive func()
	arrive = func() {
		if rng.Float64() < 0.3 {
			app.Inject("quick")
		} else {
			app.Inject("mixed")
		}
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/80), arrive)
	}
	eng.Schedule(0, arrive)
	eng.RunUntil(5 * sim.Minute)

	var sb strings.Builder
	fmt.Fprintf(&sb, "fired=%d now=%d injected=%d completed=%d failed=%d unsched=%d\n",
		eng.Fired(), eng.Now(), app.InjectedJobs, app.CompletedJobs(), app.FailedJobs(), app.UnschedulableEvents)
	for _, class := range app.E2E.Classes() {
		w := app.E2E.Class(class)
		fmt.Fprintf(&sb, "e2e %s n=%d p50=%.9f p99=%.9f\n", class,
			w.Count(0, 5*sim.Minute),
			w.PercentileBetween(0, 5*sim.Minute, 50),
			w.PercentileBetween(0, 5*sim.Minute, 99))
	}
	for _, name := range app.ServiceNames() {
		s := app.Service(name)
		fmt.Fprintf(&sb, "svc %s n=%d p95=%.9f q=%d arr=%.1f\n", name,
			s.RespTime.Count(0, 5*sim.Minute),
			s.RespTime.PercentileBetween(0, 5*sim.Minute, 95),
			s.QueueLen(),
			s.ArrivalsAll.Total(0, 5*sim.Minute))
	}
	return sb.String()
}

// TestFramesMatchReference pins the pooled step-frame machine against
// testdata/frames.golden: the frameScenario fingerprints of 12 seeds, with
// and without resilience + network faults + a mid-run crash, as produced by
// the closure-per-hop reference interpreter the frames replaced (captured
// when both interpreters still existed and agreed byte for byte).
func TestFramesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed golden sweep")
	}
	data, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(data), "# ")[1:] // one "seed=… faults=…" block per scenario
	if len(want) != 24 {
		t.Fatalf("frames.golden holds %d scenarios, want 24", len(want))
	}
	for i := range want {
		seed, faults := int64(i/2+1), i%2 == 1
		got := fmt.Sprintf("seed=%d faults=%v\n%s", seed, faults, frameScenario(seed, faults))
		if got != want[i] {
			t.Fatalf("frames diverge from golden\ngot:\n%s\nwant:\n%s", got, want[i])
		}
	}
}

// frameAllocCeiling bounds steady-state heap allocations per job on the
// kitchen-sink scenario: 14.08 measured for the frame machine (vs 70.07 for
// the closure-per-hop reference interpreter it replaced), plus a 13.6%
// margin.
const frameAllocCeiling = 16

// TestFrameAllocsBelowReference pins the point of the frame machine: frames
// and requests are pool-recycled, so a job allocates far less than the
// reference interpreter's step, finish and continuation closures per hop
// did. The ceiling is absolute (frameAllocCeiling).
func TestFrameAllocsBelowReference(t *testing.T) {
	eng := sim.NewEngine(3)
	app := MustNewApp(eng, kitchenSinkSpec())
	rng := rand.New(rand.NewSource(99))
	var arrive func()
	arrive = func() {
		app.Inject("mixed")
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/60), arrive)
	}
	eng.Schedule(0, arrive)
	eng.RunUntil(1 * sim.Minute) // warm pools and metric windows
	before := app.InjectedJobs
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng.RunUntil(3 * sim.Minute)
	runtime.ReadMemStats(&m1)
	jobs := app.InjectedJobs - before
	if jobs < 100 {
		t.Fatalf("only %d jobs in measured window", jobs)
	}
	perJob := float64(m1.Mallocs-m0.Mallocs) / float64(jobs)
	t.Logf("allocs/job: %.2f (ceiling %d)", perJob, frameAllocCeiling)
	if perJob > frameAllocCeiling {
		t.Fatalf("frame machine allocates %.2f/job, above the ceiling of %d", perJob, frameAllocCeiling)
	}
}
