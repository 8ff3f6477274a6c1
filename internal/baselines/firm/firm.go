// Package firm reimplements Firm (§VII-B), the model-free ML-driven
// baseline: one reinforcement-learning agent per microservice directly
// adjusts that service's replica count given its resource usage and the
// end-to-end SLA status. The reward is the weighted sum of resource savings
// and SLA violation status, which is why Firm sometimes trades SLA for
// savings (§VII-E).
package firm

import (
	"math"
	"math/rand"
	"time"

	"ursa/internal/baselines"
	"ursa/internal/ml/rl"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// Config parameterises Firm.
type Config struct {
	// Window is the decision interval.
	Window sim.Time
	// MaxReplicas bounds per-service allocation.
	MaxReplicas int
	// MaxStep is the largest replica delta one action can apply.
	MaxStep int
	// W1 weighs resource savings, W2 weighs SLA violations in the reward.
	W1, W2 float64
	// Hidden sizes the actor/critic networks; Batch the training batches.
	Hidden, Batch int
	// Seed drives the agents.
	Seed int64
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = sim.Minute
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 24
	}
	if c.MaxStep <= 0 {
		c.MaxStep = 2
	}
	if c.W1 <= 0 {
		// Savings dominate by default: Firm "prioritizes resource savings
		// over SLA if the savings are significant" (§VII-E).
		c.W1 = 1.5
	}
	if c.W2 <= 0 {
		c.W2 = 1.0
	}
	if c.Hidden <= 0 {
		c.Hidden = 32
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

const stateDim = 4 // util, rps, replicas, worst SLA slack

// Firm is the per-service RL manager.
type Firm struct {
	cfg      Config
	spec     services.AppSpec
	svcNames []string
	agents   map[string]*rl.Agent
	replays  map[string]*rl.Replay
	rpsNorm  float64

	app     *services.App
	ticker  *sim.Ticker
	explore bool

	prevState  map[string][]float64
	prevAction map[string]float64

	decisions int
	seconds   float64
	// TrainIterations counts RL updates (model-update latency accounting).
	TrainIterations int
	TrainSeconds    float64
}

// New builds an untrained Firm instance for an application.
func New(spec services.AppSpec, svcNames []string, rpsNorm float64, cfg Config) *Firm {
	cfg.defaults()
	f := &Firm{
		cfg:        cfg,
		spec:       spec,
		svcNames:   svcNames,
		agents:     map[string]*rl.Agent{},
		replays:    map[string]*rl.Replay{},
		rpsNorm:    rpsNorm,
		explore:    true,
		prevState:  map[string][]float64{},
		prevAction: map[string]float64{},
	}
	for i, name := range svcNames {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		f.agents[name] = rl.NewAgent(stateDim, cfg.Hidden, rng)
		f.replays[name] = rl.NewReplay(4096)
	}
	return f
}

// Clone returns a copy of the (pre-)trained system with pristine runtime
// state: agents and replay buffers are deep-copied (Firm keeps training
// online during deployment), each with a deterministically reseeded RNG.
// Clones are identical, so one pretrained prototype can fan out over many
// deployments — concurrently or not — without leaking warm RL state
// between runs.
func (f *Firm) Clone() *Firm {
	c := &Firm{
		cfg:        f.cfg,
		spec:       f.spec,
		svcNames:   f.svcNames,
		agents:     make(map[string]*rl.Agent, len(f.agents)),
		replays:    make(map[string]*rl.Replay, len(f.replays)),
		rpsNorm:    f.rpsNorm,
		explore:    f.explore,
		prevState:  map[string][]float64{},
		prevAction: map[string]float64{},
	}
	for i, name := range f.svcNames {
		rng := rand.New(rand.NewSource(f.cfg.Seed + int64(i)))
		c.agents[name] = f.agents[name].Clone(rng)
		c.replays[name] = f.replays[name].Clone()
	}
	return c
}

// SetExplore toggles exploration noise (off for evaluation).
func (f *Firm) SetExplore(on bool) { f.explore = on }

// Name implements baselines.Manager.
func (f *Firm) Name() string { return "firm" }

// Attach implements baselines.Manager.
func (f *Firm) Attach(app *services.App) error {
	f.app = app
	f.prevState = map[string][]float64{}
	f.prevAction = map[string]float64{}
	f.ticker = app.Eng.Every(f.cfg.Window, f.tick)
	return nil
}

// Detach implements baselines.Manager.
func (f *Firm) Detach() {
	if f.ticker != nil {
		f.ticker.Stop()
	}
}

// AvgDecisionMillis implements baselines.Manager.
func (f *Firm) AvgDecisionMillis() float64 {
	if f.decisions == 0 {
		return 0
	}
	return f.seconds / float64(f.decisions) * 1e3
}

// AvgTrainMillis reports the mean wall-clock cost of one online training
// iteration across agents (the "update" row of Table VI).
func (f *Firm) AvgTrainMillis() float64 {
	if f.TrainIterations == 0 {
		return 0
	}
	return f.TrainSeconds / float64(f.TrainIterations) * 1e3
}

func (f *Firm) state(obs baselines.Observation, name string) []float64 {
	so := obs.Services[name]
	slack := 0.0
	for _, cs := range f.spec.Classes {
		if lat, ok := obs.LatP[cs.Name]; ok {
			if s := lat / cs.SLAMillis; s > slack {
				slack = s
			}
		}
	}
	if slack > 3 {
		slack = 3
	}
	return []float64{
		so.Util,
		so.RPS / f.rpsNorm,
		float64(so.Replicas) / float64(f.cfg.MaxReplicas),
		slack,
	}
}

// reward implements Firm's weighted objective: savings minus violations.
// A small continuous pressure term on the SLA slack smooths the otherwise
// sparse binary violation signal so the tiny agents converge.
func (f *Firm) reward(obs baselines.Observation, name string) float64 {
	so := obs.Services[name]
	saving := 1 - float64(so.Replicas)/float64(f.cfg.MaxReplicas)
	violation := 0.0
	if obs.Violated {
		violation = 1
	}
	slack := 0.0
	for _, cs := range f.spec.Classes {
		if lat, ok := obs.LatP[cs.Name]; ok {
			if s := lat / cs.SLAMillis; s > slack {
				slack = s
			}
		}
	}
	pressure := slack - 0.8
	if pressure < 0 {
		pressure = 0
	}
	if pressure > 2 {
		pressure = 2
	}
	return f.cfg.W1*saving - f.cfg.W2*(violation+0.5*pressure)
}

func (f *Firm) tick() {
	now := f.app.Eng.Now()
	from := now - f.cfg.Window
	if from < 0 {
		from = 0
	}
	obs := baselines.Observe(f.app, from, now)

	// Store the transitions that ended in this window and train online.
	tStart := float64(time.Now().UnixNano()) / 1e9
	for _, name := range f.svcNames {
		st := f.state(obs, name)
		if prev, ok := f.prevState[name]; ok {
			f.replays[name].Add(rl.Transition{
				State:     prev,
				Action:    f.prevAction[name],
				Reward:    f.reward(obs, name),
				NextState: st,
			})
			for it := 0; it < 3; it++ {
				f.agents[name].Train(f.replays[name], f.cfg.Batch)
			}
			f.TrainIterations += 3
		}
	}
	f.TrainSeconds += float64(time.Now().UnixNano())/1e9 - tStart

	// Decide and apply actions.
	dStart := float64(time.Now().UnixNano()) / 1e9
	for _, name := range f.svcNames {
		st := f.state(obs, name)
		act := f.agents[name].Act(st, f.explore)
		f.prevState[name] = st
		f.prevAction[name] = act
		svc := f.app.Service(name)
		cur := svc.Replicas()
		delta := int(math.Round(act * float64(f.cfg.MaxStep)))
		want := cur + delta
		if want < 1 {
			want = 1
		}
		if want > f.cfg.MaxReplicas {
			want = f.cfg.MaxReplicas
		}
		if want != cur {
			svc.SetReplicas(want)
		}
	}
	f.decisions++
	f.seconds += float64(time.Now().UnixNano())/1e9 - dStart
}

// PretrainConfig parameterises offline agent training.
type PretrainConfig struct {
	// Samples is the number of decision windows to train over (the paper
	// uses 10,000 to let accuracy converge).
	Samples int
	// Window is the per-sample window (see sinan.CollectConfig.Window on
	// shortened windows vs. Table V accounting).
	Window sim.Time
	// AnomalyEvery injects a CPU-throttle anomaly into a random service
	// every N windows, per Firm's training procedure.
	AnomalyEvery int
	Seed         int64
}

func (c *PretrainConfig) defaults() {
	if c.Samples <= 0 {
		c.Samples = 1000
	}
	if c.Window <= 0 {
		c.Window = sim.Minute
	}
	if c.AnomalyEvery <= 0 {
		c.AnomalyEvery = 12
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// PretrainResult reports Table V accounting for Firm's training.
type PretrainResult struct {
	Samples       int
	SimTime       sim.Time
	AccountedTime sim.Time
}

// Pretrain trains the agents online against a fresh deployment with
// injected performance anomalies.
func Pretrain(f *Firm, mix workload.Mix, totalRPS float64, cfg PretrainConfig) PretrainResult {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	eng := sim.NewEngine(cfg.Seed)
	spec := f.spec
	app, err := services.NewAppWith(eng, spec, services.AppOptions{Window: cfg.Window})
	if err != nil {
		panic(err)
	}
	gen := workload.New(eng, app, workload.Constant{Value: totalRPS}, mix)
	gen.Start()

	save := f.cfg.Window
	f.cfg.Window = cfg.Window
	f.SetExplore(true)
	if err := f.Attach(app); err != nil {
		panic(err)
	}
	windows := 0
	var throttled *services.Service
	anom := eng.Every(sim.Time(cfg.AnomalyEvery)*cfg.Window, func() {
		if throttled != nil {
			throttled.SetCPUFactor(1)
			throttled = nil
			return
		}
		name := f.svcNames[rng.Intn(len(f.svcNames))]
		throttled = app.Service(name)
		throttled.SetCPUFactor(0.3 + rng.Float64()*0.4)
	})
	for windows < cfg.Samples {
		eng.RunFor(cfg.Window)
		windows++
	}
	anom.Stop()
	f.Detach()
	f.cfg.Window = save
	return PretrainResult{
		Samples:       windows,
		SimTime:       eng.Now(),
		AccountedTime: sim.Time(windows) * sim.Minute,
	}
}
