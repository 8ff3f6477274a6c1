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

// lifetimeSpec is the kitchen-sink app plus a relay whose handler is one MQ
// send: it completes synchronously inside the caller's Send, before the
// attempt's admission callback fires and before its timeout is armed.
func lifetimeSpec() AppSpec {
	spec := kitchenSinkSpec()
	front := spec.Services[0].Handlers
	front["quick"] = append(front["quick"], Call{Service: "relay", Mode: NestedRPC})
	spec.Services = append(spec.Services, ServiceSpec{
		Name: "relay", Threads: 4, CPUs: 1, InitialReplicas: 1,
		Handlers: map[string][]Step{"quick": Seq(Call{Service: "mq", Mode: MQ, Class: "derived"})},
	})
	return spec
}

// frameFaults selects the fault regime of a frameScenario run.
type frameFaults int

const (
	// noFaults runs the app bare: every call takes the fast path.
	noFaults frameFaults = iota
	// mildFaults turns on resilience with a few sub-timeout network delays
	// and a mid-run replica crash (the faults=true blocks of frames.golden).
	mildFaults
	// lateFaults drives every resilient-call lifetime (lifetimes.golden):
	// see lateNet and the crash schedule in frameScenario.
	lateFaults
)

// lateNet is lateFaults' network. Every 5th call to leaf and every 7th to
// gated is delayed past the 25 ms attempt timeout, so those attempts time
// out in flight, are delivered late (gated's late ones are then ghost-
// admitted through its ingress window) and race their own retry. Two
// outages drop every send to one edge long enough to exhaust its retries:
// events (event RPC, the job's branch fails) and leaf (nested RPC, the
// failure propagates up the caller chain).
type lateNet struct {
	eng   *sim.Engine
	calls map[string]int
}

func (n *lateNet) Intercept(src, dst string) (sim.Time, bool) {
	n.calls[dst]++
	k, now := n.calls[dst], n.eng.Now()
	switch {
	case dst == "events" && now >= 150*sim.Second && now < 152*sim.Second,
		dst == "leaf" && now >= 200*sim.Second && now < 200*sim.Second+500*sim.Millisecond:
		return 0, true
	case dst == "leaf" && k%5 == 0:
		return 40 * sim.Millisecond, false
	case dst == "gated" && k%7 == 0:
		return 30 * sim.Millisecond, false
	case dst == "mid" && k%11 == 0:
		return 3 * sim.Millisecond, false
	}
	return 0, false
}

// crashWhenBusy crash-kills replica 0 of s at the first 100 µs step from at
// on where that replica has at least minBusy requests in flight (admission
// bursts for a service with an ingress window, handlers otherwise), and
// scales s back to restore replicas 50 ms later.
func crashWhenBusy(eng *sim.Engine, s *Service, at sim.Time, minBusy, restore int) {
	var poll func()
	poll = func() {
		rep := s.replicas[0]
		busy := len(rep.inflight)
		if s.spec.IngressCostMs > 0 {
			busy = rep.ingressInflight
		}
		if busy < minBusy {
			eng.Schedule(100*sim.Microsecond, poll)
			return
		}
		s.CrashReplica(0)
		eng.Schedule(50*sim.Millisecond, func() { s.SetReplicas(restore) })
	}
	eng.Schedule(at, poll)
}

// frameScenario runs the kitchen-sink app for 5 simulated minutes under a
// deterministic Poisson load and returns a behaviour fingerprint: event
// counts, job accounting, and per-class / per-tier latency quantiles.
// lateFaults adds each service's resilient-client totals (attempts, retries,
// errors) to the fingerprint.
func frameScenario(seed int64, faults frameFaults) string {
	eng := sim.NewEngine(seed)
	spec := kitchenSinkSpec()
	if faults == lateFaults {
		spec = lifetimeSpec()
	}
	app := MustNewApp(eng, spec)
	switch faults {
	case mildFaults:
		app.SetResilience(ResiliencePolicy{TimeoutMs: 100, MaxRetries: 2, BackoffBaseMs: 5, BackoffMaxMs: 20, JitterFrac: 0.2})
		app.Net = &delayNet{delays: []sim.Time{2 * sim.Millisecond, 0, 5 * sim.Millisecond, 0, 0, 3 * sim.Millisecond}}
		eng.Schedule(2*sim.Minute, func() { app.Service("mid").CrashReplica(0) })
		eng.Schedule(2*sim.Minute+30*sim.Second, func() { app.Service("mid").SetReplicas(2) })
	case lateFaults:
		app.SetResilience(ResiliencePolicy{TimeoutMs: 25, MaxRetries: 2, BackoffBaseMs: 2, BackoffMaxMs: 8, JitterFrac: 0.3})
		app.Net = &lateNet{eng: eng, calls: map[string]int{}}
		// Crash a mid and a leaf replica with attempts running on them;
		// later crash gated's only replica mid-admission, killing its
		// admission bursts and stranding senders in the ingress queue
		// until the replacement starts.
		crashWhenBusy(eng, app.Service("mid"), 80*sim.Second, 2, 2)
		crashWhenBusy(eng, app.Service("leaf"), 100*sim.Second, 2, 2)
		crashWhenBusy(eng, app.Service("gated"), 240*sim.Second, 1, 1)
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
		rt := s.RespTime.Merged()
		fmt.Fprintf(&sb, "svc %s n=%d p95=%.9f q=%d arr=%.1f\n", name,
			rt.Count(0, 5*sim.Minute),
			rt.PercentileBetween(0, 5*sim.Minute, 95),
			s.QueueLen(),
			s.ArrivalsAll.Total(0, 5*sim.Minute))
		if faults == lateFaults {
			fmt.Fprintf(&sb, "rpc %s attempts=%.0f retries=%.0f errors=%.0f\n", name,
				s.RPCAttempts.Total(0, 5*sim.Minute),
				s.RPCRetries.Total(0, 5*sim.Minute),
				s.RPCErrors.Total(0, 5*sim.Minute))
		}
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
		regime := noFaults
		if faults {
			regime = mildFaults
		}
		got := fmt.Sprintf("seed=%d faults=%v\n%s", seed, faults, frameScenario(seed, regime))
		if got != want[i] {
			t.Fatalf("frames diverge from golden\ngot:\n%s\nwant:\n%s", got, want[i])
		}
	}
}

// TestFrameLifetimesMatchGolden pins every resilient-call lifetime against
// testdata/lifetimes.golden: the lateFaults fingerprints of seeds 1–4 —
// attempts timing out in flight, late responses, ghost admissions, delayed
// deliveries racing their retry, replica crashes mid-attempt, exhausted
// retries on an event and a nested edge, and synchronous completion inside
// Send. The golden was captured from the closure-based resilient client
// before the pooled call replaced it.
func TestFrameLifetimesMatchGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/lifetimes.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(data), "# ")[1:] // one "seed=…" block per scenario
	if len(want) != 4 {
		t.Fatalf("lifetimes.golden holds %d scenarios, want 4", len(want))
	}
	for i := range want {
		seed := int64(i + 1)
		got := fmt.Sprintf("seed=%d\n%s", seed, frameScenario(seed, lateFaults))
		if got != want[i] {
			t.Fatalf("resilient-call lifetimes diverge from golden\ngot:\n%s\nwant:\n%s", got, want[i])
		}
	}
}

// frameAllocCeiling bounds steady-state heap allocations per job on the
// kitchen-sink scenario's fast path: 0.0211 measured (jobs, frames,
// requests and calls are all pooled; what is left is one sealed copy per
// metric window and the counters' window growth), plus a 15% margin.
const frameAllocCeiling = 0.024

// resilientAllocCeiling bounds the same measure with every call on the
// resilient path (timeouts armed, each delivery delayed by the network):
// 0.0245 measured, plus a 15% margin.
const resilientAllocCeiling = 0.028

// TestFrameAllocCeiling pins the point of the frame machine: jobs, frames
// and requests are pool-recycled and every continuation is bound once, so a
// job allocates nothing of its own.
func TestFrameAllocCeiling(t *testing.T) {
	perJob := kitchenSinkJobAllocs(t, nil)
	t.Logf("allocs/job: %.4f (ceiling %v)", perJob, frameAllocCeiling)
	if perJob > frameAllocCeiling {
		t.Fatalf("frame machine allocates %.4f/job, above the ceiling of %v", perJob, frameAllocCeiling)
	}
}

// TestResilientAllocCeiling is TestFrameAllocCeiling's twin for pooled
// resilient calls: the same load with a retry policy and a 1 ms delay on
// every RPC.
func TestResilientAllocCeiling(t *testing.T) {
	perJob := kitchenSinkJobAllocs(t, func(app *App) {
		app.SetResilience(ResiliencePolicy{TimeoutMs: 100, MaxRetries: 2, BackoffBaseMs: 5, BackoffMaxMs: 20, JitterFrac: 0.2})
		app.Net = &delayNet{after: sim.Millisecond}
	})
	t.Logf("allocs/job: %.4f (ceiling %v)", perJob, resilientAllocCeiling)
	if perJob > resilientAllocCeiling {
		t.Fatalf("resilient calls allocate %.4f/job, above the ceiling of %v", perJob, resilientAllocCeiling)
	}
}

// kitchenSinkJobAllocs runs the kitchen-sink app under a Poisson load of
// "mixed" jobs and returns heap allocations per injected job over
// simulated minutes 1–3; the first minute warms pools and metric windows.
// setup, if set, configures the app before load starts.
func kitchenSinkJobAllocs(t *testing.T, setup func(*App)) float64 {
	eng := sim.NewEngine(3)
	app := MustNewApp(eng, kitchenSinkSpec())
	if setup != nil {
		setup(app)
	}
	rng := rand.New(rand.NewSource(99))
	var arrive func()
	arrive = func() {
		app.Inject("mixed")
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/60), arrive)
	}
	eng.Schedule(0, arrive)
	eng.RunUntil(1 * sim.Minute)
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
	return float64(m1.Mallocs-m0.Mallocs) / float64(jobs)
}
