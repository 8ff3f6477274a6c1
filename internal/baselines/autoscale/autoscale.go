// Package autoscale implements threshold autoscaling (§VII-B): the default
// AWS-step-scaling configuration (Auto-a: scale out above 60% CPU, in below
// 30%) and a manually tuned conservative configuration (Auto-b) that trades
// resources for SLA safety.
package autoscale

import (
	"math"
	"time"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/stats"
)

// Config is a threshold-scaling policy.
type Config struct {
	Name string
	// Up scales out when utilisation exceeds it.
	Up float64
	// Down scales in when utilisation falls below it.
	Down float64
	// Interval is the evaluation period.
	Interval sim.Time
	// Windows is how many recent windows the utilisation average spans.
	Windows int
	// MinReplicas floors every service.
	MinReplicas int
	// Cooldown is the minimum time between consecutive scaling actions on
	// the same service (AWS's default step-scaling cooldown is 300 s).
	Cooldown sim.Time
	// MaxStep caps the replicas added per action (0 = proportional).
	MaxStep int
}

// AutoA returns the default AWS step-scaling configuration: 60%/30%
// thresholds evaluated over 3-minute alarm periods, ±1-replica steps and a
// 5-minute cooldown — fine for steady load, slow against bursts and diurnal
// ramps.
func AutoA() Config {
	return Config{
		Name: "auto-a", Up: 0.60, Down: 0.30, Interval: 3 * sim.Minute,
		Windows: 3, MinReplicas: 1, Cooldown: 5 * sim.Minute, MaxStep: 1,
	}
}

// AutoB returns the manually tuned conservative configuration: it reacts at
// much lower utilisation, immediately and proportionally, preserving SLAs at
// the cost of over-provisioning.
func AutoB() Config {
	return Config{Name: "auto-b", Up: 0.30, Down: 0.12, Interval: sim.Minute, Windows: 2, MinReplicas: 2}
}

// Autoscaler applies a Config to every service of an app.
type Autoscaler struct {
	cfg Config
	app *services.App

	ticker     *sim.Ticker
	lastAction map[string]sim.Time

	decisions int
	seconds   float64
}

// New builds an autoscaler with the given policy.
func New(cfg Config) *Autoscaler {
	if cfg.Interval <= 0 {
		cfg.Interval = sim.Minute
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 2
	}
	if cfg.MinReplicas <= 0 {
		cfg.MinReplicas = 1
	}
	return &Autoscaler{cfg: cfg}
}

// Name implements baselines.Manager.
func (a *Autoscaler) Name() string { return a.cfg.Name }

// Attach implements baselines.Manager.
func (a *Autoscaler) Attach(app *services.App) error {
	a.app = app
	a.lastAction = map[string]sim.Time{}
	a.ticker = app.Eng.Every(a.cfg.Interval, a.tick)
	return nil
}

// Detach implements baselines.Manager.
func (a *Autoscaler) Detach() {
	if a.ticker != nil {
		a.ticker.Stop()
	}
}

// AvgDecisionMillis implements baselines.Manager.
func (a *Autoscaler) AvgDecisionMillis() float64 {
	if a.decisions == 0 {
		return 0
	}
	return a.seconds / float64(a.decisions) * 1e3
}

func (a *Autoscaler) tick() {
	start := float64(time.Now().UnixNano()) / 1e9
	now := a.app.Eng.Now()
	from := now - sim.Time(a.cfg.Windows)*a.cfg.Interval
	if from < 0 {
		from = 0
	}
	for _, name := range a.app.ServiceNames() {
		svc := a.app.Service(name)
		if svc.Replicas() == 0 {
			// A crash (fault injection) can wipe every replica, and a dead
			// service emits no utilisation signal for the thresholds to act
			// on. Enforce minimum capacity the way a real scaling group
			// does — immediately, outside the alarm/cooldown machinery.
			// Unreachable in fault-free runs: graceful scale-in never drops
			// below one replica.
			svc.SetReplicas(a.cfg.MinReplicas)
			a.lastAction[name] = now
			continue
		}
		if last, ok := a.lastAction[name]; ok && a.cfg.Cooldown > 0 && now-last < a.cfg.Cooldown {
			continue
		}
		utils := svc.UtilSamples.Between(from, now)
		if len(utils) == 0 {
			continue
		}
		util := stats.Mean(utils)
		cur := svc.Replicas()
		switch {
		case util > a.cfg.Up:
			// Step scaling: the further past the threshold, the bigger the
			// step (AWS-style proportional adjustment), optionally capped.
			step := int(math.Ceil(float64(cur) * (util - a.cfg.Up) / a.cfg.Up))
			if step < 1 {
				step = 1
			}
			if a.cfg.MaxStep > 0 && step > a.cfg.MaxStep {
				step = a.cfg.MaxStep
			}
			svc.SetReplicas(cur + step)
			a.lastAction[name] = now
		case util < a.cfg.Down && cur > a.cfg.MinReplicas:
			svc.SetReplicas(cur - 1)
			a.lastAction[name] = now
		}
	}
	a.decisions++
	a.seconds += float64(time.Now().UnixNano())/1e9 - start
}
