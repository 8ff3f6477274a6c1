package services

import (
	"math"
	"testing"
	"testing/quick"

	"ursa/internal/sim"
)

// TestJobConservationUnderChurn is the simulator's strongest invariant:
// arbitrary replica scaling while traffic flows never loses or duplicates a
// job, across all three communication modes and priorities.
func TestJobConservationUnderChurn(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine(seed)
		spec := AppSpec{
			Name: "churn",
			Services: []ServiceSpec{
				{Name: "a", Threads: 64, CPUs: 2, InitialReplicas: 2,
					IngressCostMs: 0.1, IngressWindow: 8,
					Handlers: map[string][]Step{
						"hi": Seq(Compute{MeanMs: 2, CV: 0.5}, Call{Service: "b", Mode: NestedRPC}),
						"lo": Seq(Compute{MeanMs: 2, CV: 0.5}, Call{Service: "b", Mode: EventRPC}),
					}},
				{Name: "b", Threads: 64, CPUs: 2, InitialReplicas: 2,
					IngressCostMs: 0.1, IngressWindow: 8,
					Handlers: map[string][]Step{
						"hi": Seq(Compute{MeanMs: 3, CV: 0.5}, Call{Service: "c", Mode: MQ}),
						"lo": Seq(Compute{MeanMs: 3, CV: 0.5}),
					}},
				{Name: "c", Threads: 8, CPUs: 2, InitialReplicas: 2,
					Handlers: map[string][]Step{
						"hi": Seq(Compute{MeanMs: 4, CV: 0.5}),
					}},
			},
			Classes: []ClassSpec{
				{Name: "hi", Entry: "a", Priority: 0, SLAPercentile: 99, SLAMillis: 1000},
				{Name: "lo", Entry: "a", Priority: 1, SLAPercentile: 99, SLAMillis: 1000},
			},
		}
		app := MustNewApp(eng, spec)
		rng := eng.RNG("churn")

		// Traffic.
		injected := 0
		var arrive func()
		arrive = func() {
			if injected >= 400 {
				return
			}
			injected++
			if rng.Intn(2) == 0 {
				app.Inject("hi")
			} else {
				app.Inject("lo")
			}
			eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/150), arrive)
		}
		eng.Schedule(0, arrive)

		// Aggressive random scaling of every service every few seconds.
		churn := eng.Every(2*sim.Second, func() {
			for _, name := range app.ServiceNames() {
				app.Service(name).SetReplicas(1 + rng.Intn(5))
			}
		})
		eng.RunUntil(30 * sim.Second)
		churn.Stop()
		eng.RunUntil(2 * sim.Minute) // drain

		return app.CompletedJobs() == injected && app.InjectedJobs == injected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestUtilizationNeverExceedsOneUnderChurn: the CPU accounting invariant
// busy ≤ capacity holds through scaling and throttling.
func TestUtilizationNeverExceedsOneUnderChurn(t *testing.T) {
	eng := sim.NewEngine(9001)
	app := MustNewApp(eng, oneTierSpec(2))
	rng := eng.RNG("load")
	var arrive func()
	arrive = func() {
		app.Inject("get")
		eng.Schedule(sim.Seconds2Time(rng.ExpFloat64()/300), arrive)
	}
	eng.Schedule(0, arrive)
	svc := app.Service("api")
	eng.Every(90*sim.Second, func() { svc.SetReplicas(1 + rng.Intn(4)) })
	eng.Every(2*sim.Minute, func() { svc.SetCPUFactor(0.5 + rng.Float64()) })
	eng.RunUntil(10 * sim.Minute)
	busy, capacity := svc.CPUAccounting()
	if busy > capacity+1e-6 {
		t.Fatalf("busy %.2f exceeds capacity %.2f", busy, capacity)
	}
	for _, u := range svc.UtilSamples.Between(0, math.MaxInt64) {
		if u < -1e-9 || u > 1+1e-6 {
			t.Fatalf("utilisation sample out of [0,1]: %v", u)
		}
	}
}
