package services

import (
	"math"
	"testing"

	"ursa/internal/sim"
	"ursa/internal/stats"
)

// chainSpec builds an n-tier chain t1 → t2 → ... → tn connected with the
// given mode; every tier burns exactly burstMs of CPU.
func chainSpec(n int, mode CallMode, burstMs float64) AppSpec {
	spec := AppSpec{Name: "chain-" + mode.String()}
	for i := 1; i <= n; i++ {
		name := tierName(i)
		steps := []Step{Compute{MeanMs: burstMs, CV: -1}}
		if i < n {
			steps = append(steps, Call{Service: tierName(i + 1), Mode: mode})
		}
		spec.Services = append(spec.Services, ServiceSpec{
			Name: name, Threads: 8, CPUs: 2, InitialReplicas: 1,
			Handlers: map[string][]Step{"req": steps},
		})
	}
	spec.Classes = []ClassSpec{{Name: "req", Entry: tierName(1), SLAPercentile: 99, SLAMillis: 1000}}
	return spec
}

func tierName(i int) string {
	return "tier" + string(rune('0'+i))
}

func TestNestedChainEndToEndIsSumOfTiers(t *testing.T) {
	eng := sim.NewEngine(20)
	app := MustNewApp(eng, chainSpec(5, NestedRPC, 10))
	app.Inject("req")
	eng.RunUntil(sim.Second)
	lats := app.E2E.Class("req").Between(0, math.MaxInt64)
	if len(lats) != 1 {
		t.Fatalf("jobs completed = %d", len(lats))
	}
	if math.Abs(lats[0]-50) > 1e-6 {
		t.Fatalf("e2e = %vms, want 50ms (5 tiers × 10ms)", lats[0])
	}
	// Per-tier response excludes downstream wait: every tier records ≈10ms.
	for i := 1; i <= 5; i++ {
		rt := app.Service(tierName(i)).RespTime.Merged().Between(0, math.MaxInt64)
		if len(rt) != 1 || math.Abs(rt[0]-10) > 1e-6 {
			t.Fatalf("tier %d response = %v, want [10]", i, rt)
		}
	}
}

func TestEventChainRespondsBeforeDownstream(t *testing.T) {
	eng := sim.NewEngine(21)
	app := MustNewApp(eng, chainSpec(3, EventRPC, 10))
	app.Inject("req")
	eng.RunUntil(sim.Second)
	// Tier 1's handler responds after its own 10ms burst + dispatch; the
	// job as a whole completes only after tier 3 finishes (30ms of serial
	// CPU across tiers).
	rt := app.Service("tier1").RespTime.Merged().Between(0, math.MaxInt64)
	if len(rt) != 1 || math.Abs(rt[0]-10) > 1e-6 {
		t.Fatalf("tier1 response = %v, want ≈10ms", rt)
	}
	lats := app.E2E.Class("req").Between(0, math.MaxInt64)
	if len(lats) != 1 || math.Abs(lats[0]-30) > 1e-6 {
		t.Fatalf("job latency = %vms, want [30]", lats)
	}
}

func TestMQChainDecouplesProducer(t *testing.T) {
	eng := sim.NewEngine(22)
	app := MustNewApp(eng, chainSpec(3, MQ, 10))
	app.Inject("req")
	eng.RunUntil(sim.Second)
	rt1 := app.Service("tier1").RespTime.Merged().Between(0, math.MaxInt64)
	if len(rt1) != 1 || math.Abs(rt1[0]-10) > 1e-6 {
		t.Fatalf("tier1 (producer) response = %v, want 10ms", rt1)
	}
	// The job spans all three tiers.
	lats := app.E2E.Class("req").Between(0, math.MaxInt64)
	if len(lats) != 1 || math.Abs(lats[0]-30) > 1e-6 {
		t.Fatalf("e2e = %v, want 30ms", lats)
	}
}

// bpChainSpec is the §III study chain: RPC tiers with an ingress stage
// (flow-control window + per-request receive CPU) so that sending into a
// CPU-starved tier blocks inside the parent's handler.
func bpChainSpec(mode CallMode) AppSpec {
	spec := AppSpec{Name: "bp-chain-" + mode.String()}
	for i := 1; i <= 5; i++ {
		steps := []Step{Compute{MeanMs: 5, CV: 0.3}}
		if i < 5 {
			steps = append(steps, Call{Service: tierName(i + 1), Mode: mode})
		}
		spec.Services = append(spec.Services, ServiceSpec{
			Name: tierName(i), Threads: 2048, Daemons: 32, CPUs: 2, InitialReplicas: 1,
			IngressCostMs: 1, IngressWindow: 16,
			Handlers: map[string][]Step{"req": steps},
		})
	}
	spec.Classes = []ClassSpec{{Name: "req", Entry: tierName(1), SLAPercentile: 99, SLAMillis: 1000}}
	return spec
}

// throttledChainInflation runs the Fig. 2 protocol — 5-tier chain, leaf CPU
// throttled to 38% during minutes 3–6 — and returns per-tier p99 inflation
// (during/before) for tiers 1..5.
func throttledChainInflation(t *testing.T, mode CallMode) [5]float64 {
	t.Helper()
	eng := sim.NewEngine(23)
	app := MustNewApp(eng, bpChainSpec(mode))
	rng := eng.RNG("load")
	const rps = 120
	var arrive func()
	arrive = func() {
		app.Inject("req")
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/rps), arrive)
	}
	eng.Schedule(0, arrive)
	leaf := app.Service("tier5")
	eng.At(3*sim.Minute, func() { leaf.SetCPUFactor(0.38) })
	eng.At(6*sim.Minute, func() { leaf.SetCPUFactor(1) })
	eng.RunUntil(6 * sim.Minute)
	var out [5]float64
	for i := 1; i <= 5; i++ {
		rt := app.Service(tierName(i)).RespTime.Merged()
		before := stats.Percentile(rt.Between(0, 3*sim.Minute), 99)
		during := stats.Percentile(rt.Between(3*sim.Minute, 6*sim.Minute), 99)
		out[i-1] = during / before
	}
	return out
}

func TestBackpressureNestedRPC(t *testing.T) {
	inf := throttledChainInflation(t, NestedRPC)
	if inf[3] < 3 { // tier4, parent of the culprit: significant backpressure
		t.Fatalf("nested RPC: tier4 inflation = %.2fx, want ≥3x (all: %v)", inf[3], inf)
	}
	if inf[1] > 1.5 || inf[2] > 1.5 { // diminishes up the chain
		t.Fatalf("nested RPC: backpressure did not attenuate above tier3: %v", inf)
	}
}

func TestBackpressureEventRPC(t *testing.T) {
	inf := throttledChainInflation(t, EventRPC)
	if inf[3] < 2 {
		t.Fatalf("event RPC: tier4 inflation = %.2fx, want ≥2x (all: %v)", inf[3], inf)
	}
	if inf[0] > 1.5 || inf[1] > 1.5 {
		t.Fatalf("event RPC: backpressure did not attenuate at tiers 1-2: %v", inf)
	}
}

func TestNoBackpressureMQ(t *testing.T) {
	inf := throttledChainInflation(t, MQ)
	for i := 0; i < 4; i++ {
		if inf[i] > 1.5 {
			t.Fatalf("MQ: tier%d shows backpressure: %v", i+1, inf)
		}
	}
	if inf[4] < 2 {
		t.Fatalf("MQ: throttled leaf itself should inflate: %v", inf)
	}
}

func TestParBranchesRunConcurrently(t *testing.T) {
	// front fans out to two backends in parallel (10ms each): e2e ≈ 11ms,
	// not 21ms.
	spec := AppSpec{
		Name: "fanout",
		Services: []ServiceSpec{
			{Name: "front", Threads: 4, CPUs: 2, InitialReplicas: 1, Handlers: map[string][]Step{
				"read": Seq(
					Compute{MeanMs: 1, CV: -1},
					Par{Branches: [][]Step{
						{Call{Service: "b1", Mode: NestedRPC}},
						{Call{Service: "b2", Mode: NestedRPC}},
					}},
				),
			}},
			{Name: "b1", Threads: 4, CPUs: 2, InitialReplicas: 1, Handlers: map[string][]Step{
				"read": Seq(Compute{MeanMs: 10, CV: -1}),
			}},
			{Name: "b2", Threads: 4, CPUs: 2, InitialReplicas: 1, Handlers: map[string][]Step{
				"read": Seq(Compute{MeanMs: 10, CV: -1}),
			}},
		},
		Classes: []ClassSpec{{Name: "read", Entry: "front", SLAPercentile: 99, SLAMillis: 100}},
	}
	eng := sim.NewEngine(24)
	app := MustNewApp(eng, spec)
	app.Inject("read")
	eng.RunUntil(sim.Second)
	lats := app.E2E.Class("read").Between(0, math.MaxInt64)
	if len(lats) != 1 || math.Abs(lats[0]-11) > 1e-6 {
		t.Fatalf("fan-out e2e = %v, want 11ms", lats)
	}
	// front's own response time excludes the overlapped downstream waits.
	rt := app.Service("front").RespTime.Merged().Between(0, math.MaxInt64)
	if len(rt) != 1 || math.Abs(rt[0]-1) > 1e-6 {
		t.Fatalf("front response = %v, want 1ms", rt)
	}
}

func TestSpawnCreatesDerivedJob(t *testing.T) {
	spec := AppSpec{
		Name: "spawner",
		Services: []ServiceSpec{
			{Name: "front", Threads: 4, CPUs: 2, InitialReplicas: 1, Handlers: map[string][]Step{
				"upload": Seq(Compute{MeanMs: 5, CV: -1}, Spawn{Service: "worker", Class: "analyze"}),
			}},
			{Name: "worker", Threads: 4, CPUs: 2, InitialReplicas: 1, Handlers: map[string][]Step{
				"analyze": Seq(Compute{MeanMs: 50, CV: -1}),
			}},
		},
		Classes: []ClassSpec{
			{Name: "upload", Entry: "front", SLAPercentile: 99, SLAMillis: 20},
			{Name: "analyze", Entry: "worker", Derived: true, SLAPercentile: 99, SLAMillis: 200},
		},
	}
	eng := sim.NewEngine(25)
	app := MustNewApp(eng, spec)
	app.Inject("upload")
	eng.RunUntil(sim.Second)
	up := app.E2E.Class("upload").Between(0, math.MaxInt64)
	an := app.E2E.Class("analyze").Between(0, math.MaxInt64)
	if len(up) != 1 || math.Abs(up[0]-5) > 1e-6 {
		t.Fatalf("upload e2e = %v, want 5ms (spawn is async)", up)
	}
	if len(an) != 1 || math.Abs(an[0]-50) > 1e-6 {
		t.Fatalf("analyze e2e = %v, want 50ms", an)
	}
	if app.CompletedJobs() != 2 {
		t.Fatalf("completed jobs = %d, want 2", app.CompletedJobs())
	}
}

func TestDaemonPoolLimitsEventDispatch(t *testing.T) {
	// Tier1 has 1 daemon slot; tier2 is slow. A second event call must wait
	// for the first daemon to be released, stretching tier1's handler time.
	spec := chainSpec(2, EventRPC, 1)
	spec.Services[0].Daemons = 1
	spec.Services[1].Handlers["req"] = Seq(Compute{MeanMs: 100, CV: -1})
	eng := sim.NewEngine(26)
	app := MustNewApp(eng, spec)
	app.Inject("req")
	app.Inject("req")
	eng.RunUntil(sim.Second)
	rt := app.Service("tier1").RespTime.Merged().Between(0, math.MaxInt64)
	if len(rt) != 2 {
		t.Fatalf("tier1 handled %d", len(rt))
	}
	// First handler ≈1ms; second blocked on the daemon slot until tier2
	// finishes its first 100ms burst.
	if rt[0] > 2 {
		t.Fatalf("first handler = %vms", rt[0])
	}
	if rt[1] < 50 {
		t.Fatalf("second handler = %vms, expected daemon-slot blocking ≥50ms", rt[1])
	}
}

func TestJobConservation(t *testing.T) {
	// Every injected job completes across a mixed-mode topology.
	spec := AppSpec{
		Name: "mixed",
		Services: []ServiceSpec{
			{Name: "a", Threads: 8, CPUs: 4, InitialReplicas: 2, Handlers: map[string][]Step{
				"go": Seq(Compute{MeanMs: 2}, Call{Service: "b", Mode: NestedRPC}, Call{Service: "c", Mode: MQ}),
			}},
			{Name: "b", Threads: 8, CPUs: 4, InitialReplicas: 2, Handlers: map[string][]Step{
				"go": Seq(Compute{MeanMs: 3}, Call{Service: "c", Mode: EventRPC}),
			}},
			{Name: "c", Threads: 8, CPUs: 4, InitialReplicas: 2, Handlers: map[string][]Step{
				"go": Seq(Compute{MeanMs: 4}),
			}},
		},
		Classes: []ClassSpec{{Name: "go", Entry: "a", SLAPercentile: 99, SLAMillis: 500}},
	}
	eng := sim.NewEngine(27)
	app := MustNewApp(eng, spec)
	rng := eng.RNG("load")
	n := 0
	var arrive func()
	arrive = func() {
		if n >= 500 {
			return
		}
		n++
		app.Inject("go")
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/100), arrive)
	}
	eng.Schedule(0, arrive)
	eng.RunUntil(2 * sim.Minute)
	if app.CompletedJobs() != 500 {
		t.Fatalf("completed %d/500 jobs", app.CompletedJobs())
	}
}
