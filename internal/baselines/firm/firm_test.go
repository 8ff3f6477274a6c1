package firm

import (
	"testing"

	"ursa/internal/baselines"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

func firmApp() services.AppSpec {
	return services.AppSpec{
		Name: "firm-app",
		Services: []services.ServiceSpec{{
			Name: "api", Threads: 2048, CPUs: 1, InitialReplicas: 4,
			IngressCostMs: 0.1, IngressWindow: 32,
			Handlers: map[string][]services.Step{
				"req": services.Seq(services.Compute{MeanMs: 5, CV: 0.4}),
			},
		}},
		Classes: []services.ClassSpec{
			{Name: "req", Entry: "api", SLAPercentile: 99, SLAMillis: 50},
		},
	}
}

func TestPretrainAccounting(t *testing.T) {
	spec := firmApp()
	f := New(spec, []string{"api"}, 300, Config{Seed: 21, Window: 15 * sim.Second})
	res := Pretrain(f, workload.Mix{"req": 1}, 150, PretrainConfig{
		Samples: 60, Window: 15 * sim.Second, Seed: 21,
	})
	if res.Samples != 60 {
		t.Fatalf("samples = %d", res.Samples)
	}
	if res.AccountedTime != 60*sim.Minute {
		t.Fatalf("accounted = %v", res.AccountedTime)
	}
	if f.TrainIterations == 0 {
		t.Fatal("no training happened")
	}
}

func TestFirmControlsApp(t *testing.T) {
	spec := firmApp()
	f := New(spec, []string{"api"}, 300, Config{Seed: 22, Window: 30 * sim.Second})
	Pretrain(f, workload.Mix{"req": 1}, 150, PretrainConfig{
		Samples: 600, Window: 15 * sim.Second, Seed: 22,
	})
	f.SetExplore(false)

	eng := sim.NewEngine(23)
	app, err := services.NewAppWith(eng, spec, services.AppOptions{Window: 30 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.New(eng, app, workload.Constant{Value: 150}, workload.Mix{"req": 1})
	g.Start()
	if err := f.Attach(app); err != nil {
		t.Fatal(err)
	}
	minR, maxR := 1<<30, 0
	probe := eng.Every(sim.Minute, func() {
		r := app.Service("api").Replicas()
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	})
	eng.RunUntil(20 * sim.Minute)
	probe.Stop()
	f.Detach()

	if f.AvgDecisionMillis() <= 0 {
		t.Fatal("decision latency not recorded")
	}
	if f.AvgTrainMillis() <= 0 {
		t.Fatal("training latency not recorded")
	}
	// The agent must keep the service inside sane bounds: not pinned at
	// the cap and never below the floor.
	if maxR >= f.cfg.MaxReplicas {
		t.Fatalf("agent pinned at max replicas (%d)", maxR)
	}
	if minR < 1 {
		t.Fatalf("replicas fell below 1: %d", minR)
	}
	if f.Name() != "firm" {
		t.Fatal("name")
	}
}

func TestStateBounded(t *testing.T) {
	spec := firmApp()
	f := New(spec, []string{"api"}, 300, Config{Seed: 24})
	eng := sim.NewEngine(24)
	app := services.MustNewApp(eng, spec)
	g := workload.New(eng, app, workload.Constant{Value: 600}, workload.Mix{"req": 1})
	g.Start()
	app.Service("api").SetCPUFactor(0.05)
	eng.RunUntil(3 * sim.Minute)
	f.app = app
	st := f.state(baselines.Observe(app, 2*sim.Minute, 3*sim.Minute), "api")
	if len(st) != stateDim {
		t.Fatalf("state dim = %d", len(st))
	}
	if st[3] > 3 {
		t.Fatalf("slack not clamped: %v", st[3])
	}
}
