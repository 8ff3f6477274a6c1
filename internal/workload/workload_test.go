package workload

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"ursa/internal/services"
	"ursa/internal/sim"
)

func testApp(eng *sim.Engine) *services.App {
	return services.MustNewApp(eng, services.AppSpec{
		Name: "wl-test",
		Services: []services.ServiceSpec{{
			Name: "api", Threads: 64, CPUs: 8, InitialReplicas: 4,
			Handlers: map[string][]services.Step{
				"a": services.Seq(services.Compute{MeanMs: 1, CV: -1}),
				"b": services.Seq(services.Compute{MeanMs: 1, CV: -1}),
			},
		}},
		Classes: []services.ClassSpec{
			{Name: "a", Entry: "api", SLAPercentile: 99, SLAMillis: 100},
			{Name: "b", Entry: "api", SLAPercentile: 99, SLAMillis: 100},
		},
	})
}

func TestConstantRate(t *testing.T) {
	eng := sim.NewEngine(1)
	app := testApp(eng)
	g := New(eng, app, Constant{Value: 100}, Mix{"a": 1})
	g.Start()
	eng.RunUntil(10 * sim.Minute)
	got := float64(g.Injected["a"]) / 600
	if math.Abs(got-100) > 5 {
		t.Fatalf("constant rate = %.1f RPS, want ≈100", got)
	}
}

func TestMixRatios(t *testing.T) {
	eng := sim.NewEngine(2)
	app := testApp(eng)
	g := New(eng, app, Constant{Value: 200}, Mix{"a": 3, "b": 1})
	g.Start()
	eng.RunUntil(10 * sim.Minute)
	frac := float64(g.Injected["a"]) / float64(g.Injected["a"]+g.Injected["b"])
	if math.Abs(frac-0.75) > 0.03 {
		t.Fatalf("class-a fraction = %.3f, want ≈0.75", frac)
	}
}

func TestDiurnalShape(t *testing.T) {
	d := Diurnal{Base: 50, Peak: 150, Period: 60 * sim.Minute}
	if got := d.RPS(0); got != 50 {
		t.Fatalf("RPS(0) = %v", got)
	}
	if got := d.RPS(30 * sim.Minute); math.Abs(got-150) > 1e-9 {
		t.Fatalf("RPS(mid) = %v, want 150", got)
	}
	if got := d.RPS(15 * sim.Minute); math.Abs(got-100) > 1e-9 {
		t.Fatalf("RPS(quarter) = %v, want 100", got)
	}
	// Periodic.
	if got := d.RPS(75 * sim.Minute); math.Abs(got-100) > 1e-9 {
		t.Fatalf("RPS(1.25 periods) = %v, want 100", got)
	}
}

func TestShiftPattern(t *testing.T) {
	d := Diurnal{Base: 50, Peak: 150, Period: 60 * sim.Minute}
	s := Shift{Inner: d, Offset: 15 * sim.Minute}
	// The shifted pattern at t reads the inner pattern at t+Offset.
	for _, tm := range []sim.Time{0, 10 * sim.Minute, 45 * sim.Minute, 100 * sim.Minute} {
		if got, want := s.RPS(tm), d.RPS(tm+15*sim.Minute); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Shift.RPS(%v) = %v, want %v", tm, got, want)
		}
	}
	// A whole-period shift is the identity.
	full := Shift{Inner: d, Offset: 60 * sim.Minute}
	if got := full.RPS(20 * sim.Minute); math.Abs(got-d.RPS(20*sim.Minute)) > 1e-9 {
		t.Fatalf("whole-period shift not identity: %v", got)
	}
}

func TestBurstPattern(t *testing.T) {
	b := Burst{Base: 100, Factor: 2.25, Start: 5 * sim.Minute, Len: 2 * sim.Minute}
	if b.RPS(0) != 100 || b.RPS(6*sim.Minute) != 225 || b.RPS(8*sim.Minute) != 100 {
		t.Fatal("burst pattern wrong")
	}
}

func TestDiurnalLoadTracksPattern(t *testing.T) {
	eng := sim.NewEngine(3)
	app := testApp(eng)
	g := New(eng, app, Diurnal{Base: 20, Peak: 200, Period: 20 * sim.Minute}, Mix{"a": 1})
	g.Start()
	eng.RunUntil(20 * sim.Minute)
	arr := app.Service("api").ArrivalsAll
	early := arr.Rate(0, 2*sim.Minute)
	mid := arr.Rate(9*sim.Minute, 11*sim.Minute)
	if mid < early*3 {
		t.Fatalf("diurnal peak not visible: early=%.1f mid=%.1f", early, mid)
	}
}

func TestStop(t *testing.T) {
	eng := sim.NewEngine(4)
	app := testApp(eng)
	g := New(eng, app, Constant{Value: 100}, Mix{"a": 1})
	g.Start()
	eng.RunUntil(time1)
	g.Stop()
	n := g.Injected["a"]
	eng.RunUntil(2 * time1)
	if g.Injected["a"] != n {
		t.Fatalf("generator kept injecting after Stop: %d → %d", n, g.Injected["a"])
	}
}

const time1 = 1 * sim.Minute

func TestScaledMix(t *testing.T) {
	m := Mix{"a": 2, "b": 2}
	s := m.Scaled("a", 2)
	if s["a"] != 4 || s["b"] != 2 {
		t.Fatalf("Scaled = %v", s)
	}
	if m["a"] != 2 {
		t.Fatal("Scaled mutated the original mix")
	}
	if got := s.Fraction("a"); math.Abs(got-4.0/6) > 1e-12 {
		t.Fatalf("Fraction = %v", got)
	}
}

func TestZeroRateIdles(t *testing.T) {
	eng := sim.NewEngine(5)
	app := testApp(eng)
	g := New(eng, app, Constant{Value: 0}, Mix{"a": 1})
	g.Start()
	eng.RunUntil(time1)
	if g.Injected["a"] != 0 {
		t.Fatal("zero-rate pattern injected requests")
	}
}

func TestMixPanicsWithoutWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty mix")
		}
	}()
	Mix{"a": 0}.normalize()
}

// Property: diurnal RPS stays within [Base, Peak] for all times.
func TestDiurnalBoundsProperty(t *testing.T) {
	d := Diurnal{Base: 10, Peak: 90, Period: 33 * sim.Minute}
	f := func(raw uint32) bool {
		ts := sim.Time(raw) * sim.Second
		r := d.RPS(ts)
		return r >= 10-1e-9 && r <= 90+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// recPattern wraps a pattern and records every RPS query time. The generator
// queries the pattern exactly once per arrival (at the previous arrival's
// processing time) plus once per idle re-check, so the recorded sequence is a
// complete fingerprint of the arrival timeline.
type recPattern struct {
	inner Pattern
	times []sim.Time
}

func (r *recPattern) RPS(t sim.Time) float64 {
	r.times = append(r.times, t)
	return r.inner.RPS(t)
}

// arrivalFingerprint runs one generator for 10 simulated minutes and returns
// the SHA-256 of everything observable about the run: every pattern query
// time, total events fired, per-class injection counts, and the
// millisecond-exact per-window p99 of the downstream service.
func arrivalFingerprint(seed int64, base Pattern, script func(eng *sim.Engine, g *Generator)) string {
	eng := sim.NewEngine(seed)
	app := testApp(eng)
	rec := &recPattern{inner: base}
	g := New(eng, app, rec, Mix{"a": 3, "b": 1})
	if script != nil {
		script(eng, g)
	}
	g.Start()
	eng.RunUntil(10 * sim.Minute)
	var b strings.Builder
	fmt.Fprintf(&b, "fired=%d a=%d b=%d\n", eng.Fired(), g.Injected["a"], g.Injected["b"])
	for _, ts := range rec.times {
		fmt.Fprintf(&b, "%d,", int64(ts))
	}
	b.WriteString("\n")
	p99 := app.Service("api").RespTime.Merged().PerWindowPercentile(10*sim.Minute, 99)
	fmt.Fprintf(&b, "p99=%v\n", p99)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// arrivalGolden reads testdata/arrivals.golden: one "<case> <seed> <sha256>"
// line per fingerprinted run. The digests were captured from the original
// one-timer-per-arrival generator, when it and the batched generator still
// coexisted and agreed byte for byte.
func arrivalGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/arrivals.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		golden[f[0]+" "+f[1]] = f[2]
	}
	return golden
}

// checkArrivals compares seeds 1..seeds of one case against the golden.
func checkArrivals(t *testing.T, name string, seeds int64, base Pattern, script func(eng *sim.Engine, g *Generator)) {
	t.Helper()
	golden := arrivalGolden(t)
	for seed := int64(1); seed <= seeds; seed++ {
		key := fmt.Sprintf("%s %d", name, seed)
		want, ok := golden[key]
		if !ok {
			t.Fatalf("arrivals.golden has no %q line", key)
		}
		if got := arrivalFingerprint(seed, base, script); got != want {
			t.Fatalf("%s: arrival fingerprint %s diverges from golden %s", key, got, want)
		}
	}
}

// TestBatchedMatchesLegacy is the batching property test: across many seeds
// and load shapes (constant, diurnal, a zero-rate idle window), the batched
// generator must reproduce the legacy one-timer-per-arrival generator's
// fingerprints (arrivals.golden) — same arrival times, same classes, same
// event count, same downstream latencies.
func TestBatchedMatchesLegacy(t *testing.T) {
	checkArrivals(t, "constant", 24, Constant{Value: 120}, nil)
	checkArrivals(t, "diurnal", 24, Diurnal{Base: 40, Peak: 200, Period: 6 * sim.Minute}, nil)
	// A dead window exercises the idle re-check path mid-run.
	checkArrivals(t, "idle-window", 24,
		Modulate{Base: Constant{Value: 90}, Factor: 0, Start: 3 * sim.Minute, Len: 90 * sim.Second}, nil)
}

// TestSetPatternMidBlock pins the SetPattern/block interaction: an RPS step
// injected mid-block (the generator pre-draws 256 arrivals ≈ 2.6 s at
// 100 RPS, so minute 4 is deep inside a block) takes effect at the next
// arrival boundary — the already-armed gap keeps the old rate, every later
// gap uses the new one.
func TestSetPatternMidBlock(t *testing.T) {
	script := func(eng *sim.Engine, g *Generator) {
		eng.At(4*sim.Minute+137*sim.Millisecond, func() { g.SetPattern(Constant{Value: 400}) })
		eng.At(7*sim.Minute+11*sim.Millisecond, func() { g.SetPattern(Constant{Value: 30}) })
	}
	checkArrivals(t, "set-pattern", 8, Constant{Value: 100}, script)
	for seed := int64(1); seed <= 8; seed++ {
		// The step must actually be visible: ≥3x the base arrivals.
		if n := countInjected(seed); n < 3*100*60 {
			t.Fatalf("seed %d: RPS step not visible (%d arrivals)", seed, n)
		}
	}
}

func countInjected(seed int64) int {
	eng := sim.NewEngine(seed)
	app := testApp(eng)
	g := New(eng, app, Constant{Value: 100}, Mix{"a": 1})
	eng.At(4*sim.Minute, func() { g.SetPattern(Constant{Value: 400}) })
	g.Start()
	eng.RunUntil(10 * sim.Minute)
	return g.Injected["a"]
}

// TestStopMidBlock pins the Stop/block interaction: stopping deep inside a
// pre-drawn block halts injection at the very next arrival boundary, with no
// stray arrivals from the unconsumed tail.
func TestStopMidBlock(t *testing.T) {
	script := func(eng *sim.Engine, g *Generator) {
		eng.At(5*sim.Minute+731*sim.Millisecond, g.Stop)
	}
	checkArrivals(t, "stop", 8, Constant{Value: 150}, script)
}

// arrivalAllocCeiling bounds steady-state heap allocations per arrival,
// injection pipeline included: 2.00 measured for the batched generator (vs
// 3.00 for the one-timer-per-arrival generator it replaced, which paid a
// fresh arrival closure per arrival), plus a 15% margin.
const arrivalAllocCeiling = 2.3

// TestBatchedArrivalAllocs pins the batching win: block-drawn RNG values and
// a single closure-free arrival timer drop the per-arrival closure the
// legacy generator allocated, so an arrival costs only what the injection
// pipeline (Job, Request, metrics) allocates.
func TestBatchedArrivalAllocs(t *testing.T) {
	eng := sim.NewEngine(9)
	app := services.MustNewApp(eng, services.AppSpec{
		Name: "alloc-test",
		Services: []services.ServiceSpec{{
			Name: "api", Threads: 64, CPUs: 8, InitialReplicas: 4,
			Handlers: map[string][]services.Step{
				"a": services.Seq(services.Compute{MeanMs: 0.001, CV: -1}),
			},
		}},
		Classes: []services.ClassSpec{{Name: "a", Entry: "api", SLAPercentile: 99, SLAMillis: 100}},
	})
	g := New(eng, app, Constant{Value: 1000}, Mix{"a": 1})
	g.Start()
	eng.RunUntil(2 * sim.Minute) // warm slabs, Injected map, engine arena
	before := g.Injected["a"]
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng.RunFor(time1)
	runtime.ReadMemStats(&m1)
	arrivals := g.Injected["a"] - before
	if arrivals < 100 {
		t.Fatalf("only %d arrivals in measured window", arrivals)
	}
	perArrival := float64(m1.Mallocs-m0.Mallocs) / float64(arrivals)
	if perArrival > arrivalAllocCeiling {
		t.Fatalf("generator allocates %.2f/arrival, above the ceiling of %.1f", perArrival, arrivalAllocCeiling)
	}
}
