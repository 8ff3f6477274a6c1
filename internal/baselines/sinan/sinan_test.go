package sinan

import (
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/stats"
	"ursa/internal/workload"
)

func sinanApp() services.AppSpec {
	return services.AppSpec{
		Name: "sinan-app",
		Services: []services.ServiceSpec{
			{
				Name: "front", Threads: 2048, CPUs: 1, InitialReplicas: 3,
				IngressCostMs: 0.1, IngressWindow: 32,
				Handlers: map[string][]services.Step{
					"req": services.Seq(services.Compute{MeanMs: 2, CV: 0.4},
						services.Call{Service: "back", Mode: services.NestedRPC}),
				},
			},
			{
				Name: "back", Threads: 2048, CPUs: 1, InitialReplicas: 3,
				IngressCostMs: 0.1, IngressWindow: 32,
				Handlers: map[string][]services.Step{
					"req": services.Seq(services.Compute{MeanMs: 4, CV: 0.4}),
				},
			},
		},
		Classes: []services.ClassSpec{
			{Name: "req", Entry: "front", SLAPercentile: 99, SLAMillis: 60},
		},
	}
}

func TestCollectBalancesViolations(t *testing.T) {
	res := Collect(sinanApp(), workload.Mix{"req": 1}, 260, CollectConfig{
		Samples: 120, Window: 15 * sim.Second, Seed: 9,
	})
	if len(res.Samples) != 120 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	viol := 0.0
	for _, s := range res.Samples {
		viol += s.Violated
		if len(s.Features) != channels*2 {
			t.Fatalf("feature length = %d", len(s.Features))
		}
		if len(s.LatencyNorm) != 1 {
			t.Fatalf("latency targets = %v", s.LatencyNorm)
		}
	}
	ratio := viol / float64(len(res.Samples))
	if ratio < 0.2 || ratio > 0.8 {
		t.Fatalf("violation ratio = %.2f, want balanced-ish", ratio)
	}
	if res.AccountedTime != 120*sim.Minute {
		t.Fatalf("accounted time = %v", res.AccountedTime)
	}
	if res.SimTime >= res.AccountedTime {
		t.Fatal("shortened windows should simulate less than accounted time")
	}
}

func TestTrainAndPredictDiscriminates(t *testing.T) {
	res := Collect(sinanApp(), workload.Mix{"req": 1}, 260, CollectConfig{
		Samples: 200, Window: 15 * sim.Second, Seed: 10,
	})
	s := Train(sinanApp(), res.SvcNames, res.RPSNorm, res.Samples, Config{Seed: 10, Epochs: 40})
	// The violation model must assign higher probability to violating
	// samples than to safe ones on average.
	var pv, ps, nv, ns float64
	for _, sm := range res.Samples {
		p := s.violGBT.PredictProb(sm.Features)
		if sm.Violated > 0.5 {
			pv += p
			nv++
		} else {
			ps += p
			ns++
		}
	}
	if nv == 0 || ns == 0 {
		t.Skip("degenerate dataset")
	}
	if pv/nv <= ps/ns {
		t.Fatalf("violation model does not discriminate: violating %.2f vs safe %.2f", pv/nv, ps/ns)
	}
}

func TestSinanManagesLoad(t *testing.T) {
	spec := sinanApp()
	res := Collect(spec, workload.Mix{"req": 1}, 260, CollectConfig{
		Samples: 250, Window: 15 * sim.Second, Seed: 11,
	})
	s := Train(spec, res.SvcNames, res.RPSNorm, res.Samples, Config{Seed: 11, Epochs: 50, Window: 30 * sim.Second})

	eng := sim.NewEngine(12)
	app, err := services.NewAppWith(eng, spec, services.AppOptions{Window: 30 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.New(eng, app, workload.Constant{Value: 260}, workload.Mix{"req": 1})
	g.Start()
	s.Attach(app)
	eng.RunUntil(30 * sim.Minute)
	s.Detach()

	// Sinan should keep the system mostly functional: some violations are
	// expected (that is the paper's finding), but not a meltdown.
	rec := app.E2E.Class("req")
	total, violated := 0, 0
	for w := 2 * sim.Minute; w < 30*sim.Minute; w += sim.Minute {
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
		t.Fatal("no traffic")
	}
	rate := float64(violated) / float64(total)
	if rate > 0.6 {
		t.Fatalf("sinan melted down: violation rate %.0f%%", rate*100)
	}
	if s.AvgDecisionMillis() <= 0 {
		t.Fatal("decision latency not recorded")
	}
	if s.Name() != "sinan" {
		t.Fatal("name")
	}
}

func TestCandidatesEnumeration(t *testing.T) {
	spec := sinanApp()
	s := &Sinan{cfg: Config{MaxReplicas: 8}, spec: spec, svcNames: []string{"back", "front"}}
	cands := s.candidates(map[string]int{"front": 2, "back": 1})
	// hold + front±1 + back+1 (back-1 invalid at 1) + global up = 5.
	if len(cands) != 5 {
		t.Fatalf("candidates = %d: %v", len(cands), cands)
	}
	for _, c := range cands {
		for _, r := range c {
			if r < 1 || r > 8 {
				t.Fatalf("candidate out of bounds: %v", c)
			}
		}
	}
}
