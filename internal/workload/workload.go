// Package workload generates open-loop user load against a simulated
// application — the stand-in for the paper's Locust deployment (§VII-A).
// Arrivals follow a (possibly non-homogeneous) Poisson process; request
// classes are drawn from a weighted mix. Constant, diurnal, burst and skewed
// patterns reproduce the three load regimes of §VII-E.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"ursa/internal/services"
	"ursa/internal/sim"
)

// Pattern is a time-varying target request rate.
type Pattern interface {
	// RPS reports the target arrival rate at simulated time t.
	RPS(t sim.Time) float64
}

// Constant is a fixed-rate pattern.
type Constant struct {
	Value float64
}

// RPS implements Pattern.
func (c Constant) RPS(sim.Time) float64 { return c.Value }

// Diurnal ramps linearly from Base up to Peak at Period/2 and back down —
// the paper's "RPS first gradually increases and then gradually decreases".
// The pattern repeats every Period.
type Diurnal struct {
	Base, Peak float64
	Period     sim.Time
}

// RPS implements Pattern.
func (d Diurnal) RPS(t sim.Time) float64 {
	if d.Period <= 0 {
		return d.Base
	}
	phase := float64(t%d.Period) / float64(d.Period) // 0..1
	var frac float64
	if phase < 0.5 {
		frac = phase * 2
	} else {
		frac = (1 - phase) * 2
	}
	return d.Base + (d.Peak-d.Base)*frac
}

// Shift advances a pattern in time: RPS(t) = Inner.RPS(t+Offset). Wrapping a
// periodic pattern (Diurnal) with per-deployment offsets phase-shifts the same
// curve across deployments — the follow-the-sun workload, where each region's
// peak lands in another region's trough.
type Shift struct {
	Inner  Pattern
	Offset sim.Time
}

// RPS implements Pattern.
func (s Shift) RPS(t sim.Time) float64 { return s.Inner.RPS(t + s.Offset) }

// Burst holds Base RPS and multiplies it by Factor during [Start, Start+Len)
// — the paper's "RPS increases sharply by 50% to 125%".
type Burst struct {
	Base   float64
	Factor float64
	Start  sim.Time
	Len    sim.Time
}

// RPS implements Pattern.
func (b Burst) RPS(t sim.Time) float64 {
	if t >= b.Start && t < b.Start+b.Len {
		return b.Base * b.Factor
	}
	return b.Base
}

// Modulate multiplies a base pattern by Factor during [Start, Start+Len) —
// sharp bursts superimposed on any underlying pattern.
type Modulate struct {
	Base   Pattern
	Factor float64
	Start  sim.Time
	Len    sim.Time
}

// RPS implements Pattern.
func (m Modulate) RPS(t sim.Time) float64 {
	r := m.Base.RPS(t)
	if t >= m.Start && t < m.Start+m.Len {
		return r * m.Factor
	}
	return r
}

// Mix is a weighted request-class mix; weights need not sum to 1.
type Mix map[string]float64

// Normalize returns classes (sorted) and cumulative probabilities.
func (m Mix) normalize() (classes []string, cum []float64) {
	for c := range m {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	total := 0.0
	for _, c := range classes {
		w := m[c]
		if w < 0 {
			panic(fmt.Sprintf("workload: negative weight for class %q", c))
		}
		total += w
	}
	if total <= 0 {
		panic("workload: mix has no positive weights")
	}
	acc := 0.0
	for _, c := range classes {
		acc += m[c] / total
		cum = append(cum, acc)
	}
	return classes, cum
}

// Scaled returns a copy of the mix with the given class's weight multiplied
// by f — how the skewed-load experiments double or halve update frequencies.
func (m Mix) Scaled(class string, f float64) Mix {
	out := Mix{}
	for c, w := range m {
		out[c] = w
	}
	if _, ok := out[class]; ok {
		out[class] *= f
	}
	return out
}

// Fraction reports the normalized weight of a class.
func (m Mix) Fraction(class string) float64 {
	total := 0.0
	for _, w := range m {
		total += w
	}
	if total <= 0 {
		return 0
	}
	return m[class] / total
}

// arrivalBlock is how many (inter-arrival, class) RNG draw pairs the
// generator pre-draws at a time. Bigger blocks amortize RNG calls further
// but pre-draw deeper past a Stop; 256 keeps the slabs L1-resident.
const arrivalBlock = 256

// Generator drives Poisson arrivals of mixed request classes into an app.
//
// It pre-draws RNG values in blocks and keeps exactly one pending arrival
// timer, armed through the engine's closure-free handler path — zero
// allocations per arrival in steady state. Batching amortises RNG calls
// without changing the arrival process (see DESIGN.md §4f): draws are
// consumed pairwise in stream order (gap, class, gap, class, …), and each
// inter-arrival gap is scaled by the pattern rate read at the previous
// arrival. The arrival timeline is
// pinned by internal/workload/testdata/arrivals.golden.
type Generator struct {
	eng     *sim.Engine
	app     *services.App
	pattern Pattern
	classes []string
	cum     []float64
	rng     *rand.Rand
	stopped bool
	// Injected counts requests injected per class.
	Injected map[string]int

	// Batched-arrival state: raw ExpFloat64 gap draws and Float64 class
	// draws, consumed pairwise at index idx. Raw draws are pattern-agnostic —
	// gaps are scaled by the live rate only when the next timer is armed, so
	// SetPattern needs no block invalidation.
	expDraws []float64
	clsDraws []float64
	idx      int
	// idleWait marks the pending timer as a rate re-check (pattern returned
	// rate ≤ 0) rather than an arrival.
	idleWait bool
}

// New creates a generator; call Start to begin injecting load.
func New(eng *sim.Engine, app *services.App, pattern Pattern, mix Mix) *Generator {
	classes, cum := mix.normalize()
	return &Generator{
		eng:      eng,
		app:      app,
		pattern:  pattern,
		classes:  classes,
		cum:      cum,
		rng:      eng.RNG("workload/" + app.Spec.Name),
		Injected: map[string]int{},
	}
}

// Start begins the open-loop arrival process.
func (g *Generator) Start() { g.armNext() }

// Stop halts future arrivals (in-flight requests drain normally). A pending
// arrival timer fires as a no-op.
func (g *Generator) Stop() { g.stopped = true }

// SetPattern swaps the load pattern. It takes effect at the next arrival
// boundary: the already-armed gap was scaled by the old pattern's rate (it
// was drawn at the previous arrival), and every later gap is scaled by the
// new pattern's rate at arm time. The pre-drawn blocks store raw unscaled
// draws, so a swap needs no block invalidation.
func (g *Generator) SetPattern(p Pattern) { g.pattern = p }

// refill pre-draws one block of (gap, class) RNG pairs from the generator's
// private stream, interleaved pairwise (Exp₁ F₁ Exp₂ F₂ …).
func (g *Generator) refill() {
	if cap(g.expDraws) == 0 {
		g.expDraws = make([]float64, 0, arrivalBlock)
		g.clsDraws = make([]float64, 0, arrivalBlock)
	}
	g.expDraws = g.expDraws[:0]
	g.clsDraws = g.clsDraws[:0]
	for i := 0; i < arrivalBlock; i++ {
		g.expDraws = append(g.expDraws, g.rng.ExpFloat64())
		g.clsDraws = append(g.clsDraws, g.rng.Float64())
	}
	g.idx = 0
}

// armNext schedules the next arrival (or a 1-second idle re-check when the
// pattern rate is non-positive) on the closure-free handler path.
func (g *Generator) armNext() {
	if g.stopped {
		return
	}
	rate := g.pattern.RPS(g.eng.Now())
	if rate <= 0 {
		// Idle: re-check for a live rate once a second, consuming no draws.
		g.idleWait = true
		g.eng.ScheduleHandler(sim.Second, g)
		return
	}
	if g.idx == len(g.expDraws) {
		g.refill()
	}
	gap := sim.Seconds2Time(g.expDraws[g.idx] / rate)
	g.eng.ScheduleHandler(gap, g)
}

// OnEvent implements sim.Handler: one arrival (or one idle re-check) fires.
func (g *Generator) OnEvent() {
	if g.stopped {
		return
	}
	if g.idleWait {
		g.idleWait = false
		g.armNext()
		return
	}
	class := g.pickFrom(g.clsDraws[g.idx])
	g.idx++
	g.Injected[class]++
	g.app.Inject(class)
	g.armNext()
}

func (g *Generator) pickFrom(u float64) string {
	for i, c := range g.cum {
		if u <= c {
			return g.classes[i]
		}
	}
	return g.classes[len(g.classes)-1]
}
