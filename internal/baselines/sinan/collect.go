package sinan

import (
	"math/rand"

	"ursa/internal/baselines"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// CollectConfig parameterises the data-collection process.
type CollectConfig struct {
	// Samples is the number of (state, candidate → outcome) examples to
	// gather; the paper uses 10,000.
	Samples int
	// Window is the per-sample observation window. The paper samples once
	// per minute; benchmarks may shorten the window to keep the simulated
	// collection tractable while keeping the paper's once-per-minute
	// accounting for Table V.
	Window sim.Time
	// TargetViolationRatio balances the dataset — Sinan keeps violating to
	// non-violating samples near 1:1 so the models are unbiased.
	TargetViolationRatio float64
	// MaxReplicas bounds the explored allocations.
	MaxReplicas int
	// Seed drives the random exploration.
	Seed int64
}

func (c *CollectConfig) defaults() {
	if c.Samples <= 0 {
		c.Samples = 1000
	}
	if c.Window <= 0 {
		c.Window = sim.Minute
	}
	if c.TargetViolationRatio <= 0 {
		c.TargetViolationRatio = 0.5
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 24
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// CollectResult is the gathered dataset plus accounting for Table V.
type CollectResult struct {
	Samples  []Sample
	SvcNames []string
	RPSNorm  float64
	// SimTime is the simulated time the collection actually ran;
	// AccountedTime is samples × 1 minute (the paper's sampling cadence).
	SimTime       sim.Time
	AccountedTime sim.Time
}

// Collect runs Sinan's balanced data-collection process: the application
// serves the replayed workload while the collector walks the allocation
// space, steering toward a 1:1 violating/meeting ratio.
func Collect(spec services.AppSpec, mix workload.Mix, totalRPS float64, cfg CollectConfig) CollectResult {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	eng := sim.NewEngine(cfg.Seed)
	app, err := services.NewAppWith(eng, spec, services.AppOptions{Window: cfg.Window})
	if err != nil {
		panic(err)
	}
	gen := workload.New(eng, app, workload.Constant{Value: totalRPS}, mix)
	gen.Start()

	svcNames := app.ServiceNames()
	rpsNorm := totalRPS * 2

	cur := map[string]int{}
	for _, name := range svcNames {
		cur[name] = app.Service(name).Replicas()
	}

	res := CollectResult{SvcNames: svcNames, RPSNorm: rpsNorm}
	violations := 0
	eng.RunUntil(cfg.Window) // warm-up

	for len(res.Samples) < cfg.Samples {
		from := eng.Now() - cfg.Window
		obs := baselines.Observe(app, from, eng.Now())

		// Pick the next allocation: bias toward creating violations when
		// the dataset has too few, and toward relieving them when too many.
		ratio := 0.0
		if len(res.Samples) > 0 {
			ratio = float64(violations) / float64(len(res.Samples))
		}
		next := map[string]int{}
		for name, r := range cur {
			next[name] = r
		}
		name := svcNames[rng.Intn(len(svcNames))]
		if ratio < cfg.TargetViolationRatio {
			// Squeeze a random service.
			if next[name] > 1 {
				next[name] -= 1 + rng.Intn(2)
				if next[name] < 1 {
					next[name] = 1
				}
			}
		} else {
			if next[name] < cfg.MaxReplicas {
				next[name] += 1 + rng.Intn(2)
				if next[name] > cfg.MaxReplicas {
					next[name] = cfg.MaxReplicas
				}
			}
		}
		feats := featureVector(svcNames, obs, next, cfg.MaxReplicas, rpsNorm)
		for n, r := range next {
			if app.Service(n).Replicas() != r {
				app.Service(n).SetReplicas(r)
			}
		}
		cur = next

		// Observe the outcome window.
		wStart := eng.Now()
		eng.RunFor(cfg.Window)
		out := baselines.Observe(app, wStart, eng.Now())
		sm := Sample{Features: feats}
		for _, cs := range spec.Classes {
			norm := out.LatP[cs.Name] / cs.SLAMillis
			sm.LatencyNorm = append(sm.LatencyNorm, norm)
		}
		if out.Violated {
			sm.Violated = 1
			violations++
		}
		res.Samples = append(res.Samples, sm)
	}
	res.SimTime = eng.Now()
	res.AccountedTime = sim.Time(len(res.Samples)) * sim.Minute
	return res
}
