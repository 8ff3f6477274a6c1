// Package sinan reimplements Sinan (§VII-B), the model-based ML-driven
// baseline: a CNN that predicts next-window end-to-end latency per request
// class for a candidate allocation, plus gradient-boosted trees that predict
// the probability of an SLA violation further into the future. A centralised
// scheduler queries both models with candidate allocations each interval and
// applies the cheapest allocation predicted safe.
package sinan

import (
	"math/rand"
	"time"

	"ursa/internal/baselines"
	"ursa/internal/ml/gbt"
	"ursa/internal/ml/nn"
	"ursa/internal/ml/tensor"
	"ursa/internal/services"
	"ursa/internal/sim"
)

// Config parameterises Sinan.
type Config struct {
	// Window is the decision/sampling interval.
	Window sim.Time
	// MaxReplicas bounds per-service allocations during collection and
	// control.
	MaxReplicas int
	// Filters / Hidden size the CNN.
	Filters, Hidden int
	// Epochs is the CNN training epoch count.
	Epochs int
	// Trees / Depth size the violation GBT.
	Trees, Depth int
	// SafetyProb rejects candidates whose predicted violation probability
	// exceeds it.
	SafetyProb float64
	// Seed drives model init and collection randomness.
	Seed int64
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = sim.Minute
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 24
	}
	if c.Filters <= 0 {
		c.Filters = 8
	}
	if c.Hidden <= 0 {
		c.Hidden = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 60
	}
	if c.Trees <= 0 {
		c.Trees = 60
	}
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.SafetyProb <= 0 {
		c.SafetyProb = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// channels per service in the CNN input: replicas, util, rps, candidate.
const channels = 4

// Sample is one training example: state + candidate allocation features and
// the next-window outcome.
type Sample struct {
	Features []float64
	// LatencyNorm is per-class latency at the SLA percentile, normalised by
	// the SLA target (1.0 = exactly at SLA).
	LatencyNorm []float64
	// Violated is 1 when any class broke its SLA in the following window.
	Violated float64
}

// Sinan is the trained system.
type Sinan struct {
	cfg      Config
	spec     services.AppSpec
	svcNames []string
	classes  []services.ClassSpec

	latNet  *nn.Network
	violGBT *gbt.Classifier
	rpsNorm float64

	app    *services.App
	ticker *sim.Ticker
	rng    *rand.Rand

	decisions int
	seconds   float64
}

// featureVector builds the CNN input: channel-major [replicas | util | rps |
// candidate] over services.
func featureVector(svcNames []string, obs baselines.Observation, candidate map[string]int, maxReplicas int, rpsNorm float64) []float64 {
	s := len(svcNames)
	f := make([]float64, channels*s)
	for i, name := range svcNames {
		so := obs.Services[name]
		f[0*s+i] = float64(so.Replicas) / float64(maxReplicas)
		f[1*s+i] = so.Util
		f[2*s+i] = so.RPS / rpsNorm
		f[3*s+i] = float64(candidate[name]) / float64(maxReplicas)
	}
	return f
}

// Train fits Sinan's models to collected samples.
func Train(spec services.AppSpec, svcNames []string, rpsNorm float64, samples []Sample, cfg Config) *Sinan {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	classes := spec.Classes
	s := &Sinan{
		cfg:      cfg,
		spec:     spec,
		svcNames: svcNames,
		classes:  classes,
		rpsNorm:  rpsNorm,
		rng:      rng,
	}
	width := len(svcNames)
	kernel := 3
	if kernel > width {
		kernel = width
	}
	conv := nn.NewConv1D(channels, width, kernel, cfg.Filters, rng)
	s.latNet = &nn.Network{Layers: []nn.Layer{
		conv, &nn.ReLU{},
		nn.NewDense(conv.OutLen(), cfg.Hidden, rng), &nn.ReLU{},
		nn.NewDense(cfg.Hidden, len(classes), rng),
	}}

	// CNN training: mini-batch Adam on normalised latencies.
	x := tensor.New(len(samples), channels*width)
	y := tensor.New(len(samples), len(classes))
	for i, sm := range samples {
		copy(x.Data[i*x.Cols:], sm.Features)
		copy(y.Data[i*y.Cols:], sm.LatencyNorm)
	}
	opt := nn.NewAdam(1e-3)
	const batch = 64
	idx := rng.Perm(len(samples))
	for e := 0; e < cfg.Epochs; e++ {
		for off := 0; off < len(idx); off += batch {
			end := off + batch
			if end > len(idx) {
				end = len(idx)
			}
			bx := tensor.New(end-off, x.Cols)
			by := tensor.New(end-off, y.Cols)
			for bi, si := range idx[off:end] {
				copy(bx.Data[bi*bx.Cols:], x.Data[si*x.Cols:(si+1)*x.Cols])
				copy(by.Data[bi*by.Cols:], y.Data[si*y.Cols:(si+1)*y.Cols])
			}
			s.latNet.ZeroGrad()
			out := s.latNet.Forward(bx)
			_, grad := nn.MSELoss(out, by)
			s.latNet.Backward(grad)
			opt.Step(s.latNet.Params())
		}
	}

	// Violation GBT on the same features.
	gx := make([][]float64, len(samples))
	gy := make([]float64, len(samples))
	for i, sm := range samples {
		gx[i] = sm.Features
		gy[i] = sm.Violated
	}
	s.violGBT = gbt.TrainClassifier(gx, gy, gbt.Config{Trees: cfg.Trees, Depth: cfg.Depth})
	return s
}

// Clone returns a copy of the trained system with pristine runtime state,
// ready to attach to another application instance (possibly on another
// goroutine). The CNN is deep-copied because Forward caches activations;
// the GBT is shared, as prediction is a read-only tree walk. Clones are
// identical, so deployments fanned over clones are deterministic.
func (s *Sinan) Clone() *Sinan {
	return &Sinan{
		cfg:      s.cfg,
		spec:     s.spec,
		svcNames: s.svcNames,
		classes:  s.classes,
		latNet:   s.latNet.Clone(),
		violGBT:  s.violGBT,
		rpsNorm:  s.rpsNorm,
		rng:      rand.New(rand.NewSource(s.cfg.Seed)),
	}
}

// Name implements baselines.Manager.
func (s *Sinan) Name() string { return "sinan" }

// Attach implements baselines.Manager.
func (s *Sinan) Attach(app *services.App) error {
	s.app = app
	s.ticker = app.Eng.Every(s.cfg.Window, s.tick)
	return nil
}

// Detach implements baselines.Manager.
func (s *Sinan) Detach() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

// AvgDecisionMillis implements baselines.Manager.
func (s *Sinan) AvgDecisionMillis() float64 {
	if s.decisions == 0 {
		return 0
	}
	return s.seconds / float64(s.decisions) * 1e3
}

// candidates enumerates allocations to evaluate: hold, per-service ±1, and
// a global +1 escape hatch.
func (s *Sinan) candidates(cur map[string]int) []map[string]int {
	clone := func() map[string]int {
		m := make(map[string]int, len(cur))
		for k, v := range cur {
			m[k] = v
		}
		return m
	}
	out := []map[string]int{clone()}
	for _, name := range s.svcNames {
		if cur[name] < s.cfg.MaxReplicas {
			c := clone()
			c[name]++
			out = append(out, c)
		}
		if cur[name] > 1 {
			c := clone()
			c[name]--
			out = append(out, c)
		}
	}
	up := clone()
	for _, name := range s.svcNames {
		if up[name] < s.cfg.MaxReplicas {
			up[name]++
		}
	}
	out = append(out, up)
	return out
}

func (s *Sinan) tick() {
	start := float64(time.Now().UnixNano()) / 1e9
	now := s.app.Eng.Now()
	from := now - s.cfg.Window
	if from < 0 {
		from = 0
	}
	obs := baselines.Observe(s.app, from, now)
	cur := map[string]int{}
	for _, name := range s.svcNames {
		cur[name] = s.app.Service(name).Replicas()
	}
	cands := s.candidates(cur)

	// Batch all candidates through the CNN.
	width := len(s.svcNames)
	x := tensor.New(len(cands), channels*width)
	feats := make([][]float64, len(cands))
	for i, c := range cands {
		feats[i] = featureVector(s.svcNames, obs, c, s.cfg.MaxReplicas, s.rpsNorm)
		copy(x.Data[i*x.Cols:], feats[i])
	}
	pred := s.latNet.Forward(x)

	bestIdx, bestCost := -1, 0.0
	for i, c := range cands {
		safe := true
		for j := range s.classes {
			if pred.Data[i*pred.Cols+j] >= 1.0 {
				safe = false
				break
			}
		}
		if safe && s.violGBT.PredictProb(feats[i]) > s.cfg.SafetyProb {
			safe = false
		}
		if !safe {
			continue
		}
		cost := 0.0
		for name, r := range c {
			cpus := 1.0
			if ss := s.spec.ServiceSpecByName(name); ss != nil {
				cpus = ss.CPUs
			}
			cost += float64(r) * cpus
		}
		if bestIdx == -1 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	var chosen map[string]int
	if bestIdx >= 0 {
		chosen = cands[bestIdx]
	} else {
		// Nothing predicted safe: scale out the most utilised services.
		chosen = cur
		for _, name := range s.svcNames {
			if obs.Services[name].Util > 0.4 && chosen[name] < s.cfg.MaxReplicas {
				chosen[name]++
			}
		}
	}
	for name, r := range chosen {
		if r != s.app.Service(name).Replicas() {
			s.app.Service(name).SetReplicas(r)
		}
	}
	s.decisions++
	s.seconds += float64(time.Now().UnixNano())/1e9 - start
}
