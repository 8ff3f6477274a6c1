package autoscale

import (
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

func scaleApp(eng *sim.Engine, replicas int) *services.App {
	return services.MustNewApp(eng, services.AppSpec{
		Name: "as",
		Services: []services.ServiceSpec{{
			Name: "api", Threads: 256, CPUs: 1, InitialReplicas: replicas,
			Handlers: map[string][]services.Step{
				"get": services.Seq(services.Compute{MeanMs: 5, CV: 0.3}),
			},
		}},
		Classes: []services.ClassSpec{{Name: "get", Entry: "api", SLAPercentile: 99, SLAMillis: 100}},
	})
}

func TestScalesUpUnderLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	app := scaleApp(eng, 1)
	// 150 RPS × 5ms = 0.75 core-s/s on 1 core → util 75% > 60%.
	g := workload.New(eng, app, workload.Constant{Value: 150}, workload.Mix{"get": 1})
	g.Start()
	as := New(AutoA())
	if err := as.Attach(app); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * sim.Minute)
	as.Detach()
	if got := app.Service("api").Replicas(); got < 2 {
		t.Fatalf("replicas = %d, want ≥2", got)
	}
	if as.Name() != "auto-a" {
		t.Fatalf("name = %q", as.Name())
	}
	if as.AvgDecisionMillis() < 0 {
		t.Fatal("decision accounting broken")
	}
}

func TestScalesDownWhenIdle(t *testing.T) {
	eng := sim.NewEngine(2)
	app := scaleApp(eng, 6)
	// 30 RPS over 6 cores → util 2.5% < 30%.
	g := workload.New(eng, app, workload.Constant{Value: 30}, workload.Mix{"get": 1})
	g.Start()
	as := New(AutoA())
	if err := as.Attach(app); err != nil {
		t.Fatal(err)
	}
	// Auto-a's 5-minute cooldown allows roughly one scale-in per 5 min.
	eng.RunUntil(30 * sim.Minute)
	as.Detach()
	if got := app.Service("api").Replicas(); got > 2 {
		t.Fatalf("replicas = %d, want scaled down", got)
	}
}

func TestAutoBIsMoreConservative(t *testing.T) {
	run := func(cfg Config) float64 {
		eng := sim.NewEngine(3)
		app := scaleApp(eng, 2)
		g := workload.New(eng, app, workload.Constant{Value: 120}, workload.Mix{"get": 1})
		g.Start()
		as := New(cfg)
		if err := as.Attach(app); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(20 * sim.Minute)
		as.Detach()
		return app.AllocIntegralCPUSeconds()
	}
	a, b := run(AutoA()), run(AutoB())
	if b <= a {
		t.Fatalf("Auto-b should allocate more than Auto-a: a=%.0f b=%.0f cpu·s", a, b)
	}
}

func TestMinReplicasFloor(t *testing.T) {
	eng := sim.NewEngine(4)
	app := scaleApp(eng, 3)
	// No load at all: scale-in pressure forever.
	as := New(Config{Name: "floor", Up: 0.6, Down: 0.3, MinReplicas: 2})
	if err := as.Attach(app); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(30 * sim.Minute)
	as.Detach()
	if got := app.Service("api").Replicas(); got != 2 {
		t.Fatalf("replicas = %d, want floor 2", got)
	}
}

func TestStepScalingProportional(t *testing.T) {
	eng := sim.NewEngine(5)
	app := scaleApp(eng, 2)
	// Demand 400×5ms = 2 core-s/s on 2 cores → util ≈ 100%, far above 60%:
	// with uncapped steps (Auto-b style) the adjustment must exceed 1.
	g := workload.New(eng, app, workload.Constant{Value: 400}, workload.Mix{"get": 1})
	g.Start()
	as := New(Config{Name: "prop", Up: 0.60, Down: 0.30, Interval: sim.Minute, Windows: 2})
	if err := as.Attach(app); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2*sim.Minute + sim.Second)
	as.Detach()
	if got := app.Service("api").Replicas(); got < 3 {
		t.Fatalf("replicas = %d after one breach, want proportional step ≥3", got)
	}
}

func TestAutoACooldownLimitsActionRate(t *testing.T) {
	eng := sim.NewEngine(6)
	app := scaleApp(eng, 1)
	// Permanent overload: Auto-a may only add one replica per cooldown.
	g := workload.New(eng, app, workload.Constant{Value: 800}, workload.Mix{"get": 1})
	g.Start()
	as := New(AutoA())
	if err := as.Attach(app); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(16 * sim.Minute)
	as.Detach()
	got := app.Service("api").Replicas()
	// ~3 action opportunities in 16 min (cooldown 5 min, eval 3 min).
	if got > 5 {
		t.Fatalf("replicas = %d, cooldown not enforced", got)
	}
	if got < 2 {
		t.Fatalf("replicas = %d, no scaling at all", got)
	}
}

// TestRestoresWipedService covers the fault-injection interaction: a crash
// that kills every replica leaves no utilisation signal, so the autoscaler
// must restore minimum capacity directly rather than wait for an alarm that
// can never fire.
func TestRestoresWipedService(t *testing.T) {
	eng := sim.NewEngine(1)
	app := scaleApp(eng, 1)
	as := New(AutoA())
	if err := as.Attach(app); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(4 * sim.Minute)
	svc := app.Service("api")
	if !svc.CrashReplica(0) {
		t.Fatal("crash failed")
	}
	if svc.Replicas() != 0 {
		t.Fatalf("replicas = %d after crash, want 0", svc.Replicas())
	}
	// Next evaluation tick must bring the service back, cooldown or not.
	eng.RunUntil(8 * sim.Minute)
	as.Detach()
	if got := svc.Replicas(); got < AutoA().MinReplicas {
		t.Fatalf("replicas = %d after wipe, want ≥%d", got, AutoA().MinReplicas)
	}
}
