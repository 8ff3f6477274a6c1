package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"ursa/internal/sim"
)

func TestWindowedBucketsByMinute(t *testing.T) {
	w := NewWindowed(sim.Minute)
	w.Add(10*sim.Second, 1)
	w.Add(30*sim.Second, 2)
	w.Add(70*sim.Second, 3)
	if w.NumWindows() != 2 {
		t.Fatalf("NumWindows = %d", w.NumWindows())
	}
	if s0, n0 := w.WindowStartAt(0), w.WindowCountAt(0); s0 != 0 || n0 != 2 {
		t.Fatalf("window 0: start=%v n=%d", s0, n0)
	}
	s1, v1 := w.WindowStartAt(1), w.Between(sim.Minute, 2*sim.Minute)
	if s1 != sim.Minute || w.WindowCountAt(1) != 1 || len(v1) != 1 || v1[0] != 3 {
		t.Fatalf("window 1: start=%v v=%v", s1, v1)
	}
}

func TestWindowedBetweenAndCount(t *testing.T) {
	w := NewWindowed(sim.Minute)
	for i := 0; i < 10; i++ {
		w.Add(sim.Time(i)*sim.Minute, float64(i))
	}
	got := w.Between(2*sim.Minute, 5*sim.Minute)
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("Between = %v", got)
	}
	if w.Count(0, 10*sim.Minute) != 10 {
		t.Fatalf("Count = %d", w.Count(0, 10*sim.Minute))
	}
	if len(w.Between(0, math.MaxInt64)) != 10 {
		t.Fatalf("Between(0, max) = %v", w.Between(0, math.MaxInt64))
	}
}

func TestPerWindowPercentile(t *testing.T) {
	w := NewWindowed(sim.Minute)
	// Minute 0: constant 10; minute 2: constant 30; minute 1 empty.
	for i := 0; i < 5; i++ {
		w.Add(sim.Time(i)*sim.Second, 10)
		w.Add(2*sim.Minute+sim.Time(i)*sim.Second, 30)
	}
	got := w.PerWindowPercentile(3*sim.Minute, 99)
	if len(got) != 3 || got[0] != 10 || !math.IsNaN(got[1]) || got[2] != 30 {
		t.Fatalf("PerWindowPercentile = %v (empty window must be NaN, not 0)", got)
	}
}

func TestWindowedTrimAndReset(t *testing.T) {
	w := NewWindowed(sim.Minute)
	for i := 0; i < 10; i++ {
		w.Add(sim.Time(i)*sim.Minute, float64(i))
	}
	w.Trim(5 * sim.Minute)
	if w.NumWindows() != 5 {
		t.Fatalf("after Trim: %d windows", w.NumWindows())
	}
	if s := w.WindowStartAt(0); s != 5*sim.Minute {
		t.Fatalf("first window after Trim starts at %v", s)
	}
	w.Reset()
	if w.NumWindows() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestLatencyRecorderClasses(t *testing.T) {
	r := NewLatencyRecorder(sim.Minute)
	r.Record(0, "read", 5)
	r.Record(0, "write", 9)
	r.Record(sim.Second, "read", 7)
	cs := r.Classes()
	if len(cs) != 2 || cs[0] != "read" || cs[1] != "write" {
		t.Fatalf("Classes = %v", cs)
	}
	if n := r.Class("read").Count(0, sim.Minute); n != 2 {
		t.Fatalf("read count = %d", n)
	}
	if r.Class("absent") != nil {
		t.Fatal("absent class should be nil")
	}
	r.Reset()
	if n := r.Class("read").Count(0, sim.Hour); n != 0 {
		t.Fatal("Reset did not clear recorder")
	}
}

func TestCounterSeriesRate(t *testing.T) {
	c := NewCounterSeries(sim.Minute)
	for i := 0; i < 120; i++ { // 2 events/second for 1 minute
		c.Inc(sim.Time(i)*sim.Second/2, 1)
	}
	if got := c.Total(0, sim.Minute); got != 120 {
		t.Fatalf("Total = %v", got)
	}
	if got := c.Rate(0, sim.Minute); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Rate = %v", got)
	}
	if c.Rate(sim.Minute, sim.Minute) != 0 {
		t.Fatal("empty-interval rate should be 0")
	}
	c.Reset()
	if c.Total(0, sim.Hour) != 0 {
		t.Fatal("Reset did not clear counter")
	}
}

func TestGaugeIntegral(t *testing.T) {
	g := NewGauge(0, 2)
	g.Set(10*sim.Second, 4) // 2 for 10s = 20
	g.Set(20*sim.Second, 0) // 4 for 10s = 40
	if got := g.IntegralUntil(30 * sim.Second); math.Abs(got-60) > 1e-9 {
		t.Fatalf("Integral = %v, want 60", got)
	}
	if g.Value() != 0 {
		t.Fatalf("Value = %v", g.Value())
	}
}

func TestGaugeBackwardsPanics(t *testing.T) {
	g := NewGauge(sim.Minute, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards Set")
		}
	}()
	g.Set(0, 2)
}

// Property: the gauge integral equals the sum of value×duration segments.
func TestGaugeIntegralProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		g := NewGauge(0, 0)
		want := 0.0
		prevV := 0.0
		for i, v := range vals {
			t0 := sim.Time(i) * sim.Second
			t1 := sim.Time(i+1) * sim.Second
			g.Set(t1, float64(v))
			want += prevV * (t1 - t0).Seconds()
			prevV = float64(v)
		}
		end := sim.Time(len(vals)) * sim.Second
		return math.Abs(g.IntegralUntil(end)-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedEdgeBoundaries pins the half-open [from, to) window semantics
// when samples land exactly on window edges: a sample at t belongs to the
// window starting at t, Between(from, to) includes the window starting at
// `from` and excludes the one starting at `to`, and All() (now an unbounded
// Between) still sees everything — including windows far beyond any fixed
// horizon constant.
func TestWindowedEdgeBoundaries(t *testing.T) {
	w := NewWindowed(sim.Minute)
	// One sample exactly on each of the first six window edges…
	for i := 0; i < 6; i++ {
		w.Add(sim.Time(i)*sim.Minute, float64(i))
	}
	// …and one far beyond the old 1000-hour horizon constant.
	far := 5000 * sim.Hour
	w.Add(far, 99)

	if got := w.Between(2*sim.Minute, 5*sim.Minute); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("edge Between = %v, want [2 3 4]", got)
	}
	// from == to is empty, and a window starting exactly at `to` is excluded.
	if got := w.Between(3*sim.Minute, 3*sim.Minute); got != nil {
		t.Fatalf("empty-range Between = %v, want nil", got)
	}
	if n := w.Count(0, far); n != 6 {
		t.Fatalf("Count excluding window at `to` = %d, want 6", n)
	}
	if got := w.Between(0, math.MaxInt64); len(got) != 7 || got[6] != 99 {
		t.Fatalf("Between(0, max) = %v, want all 7 samples incl. the far one", got)
	}

	// Trim at an exact window edge keeps the window starting at the cutoff.
	w.Trim(3 * sim.Minute)
	if s, v := w.WindowStartAt(0), w.Between(3*sim.Minute, 4*sim.Minute); s != 3*sim.Minute || w.WindowCountAt(0) != 1 || len(v) != 1 || v[0] != 3 {
		t.Fatalf("after Trim(3m): first window start=%v v=%v", s, v)
	}
	if got := w.Between(0, far+sim.Minute); len(got) != 4 || got[0] != 3 || got[3] != 99 {
		t.Fatalf("Between after Trim = %v, want [3 4 5 99]", got)
	}
	if got := w.PercentileBetween(3*sim.Minute, 6*sim.Minute, 100); got != 5 {
		t.Fatalf("PercentileBetween after Trim = %v, want 5", got)
	}
}

// Property: Windowed never loses samples — Count over everything equals the
// number of Adds.
func TestWindowedConservationProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		w := NewWindowed(sim.Minute)
		cur := sim.Time(0)
		for _, o := range offsets {
			cur += sim.Time(o) * sim.Millisecond
			w.Add(cur, 1)
		}
		return w.Count(0, cur+sim.Minute) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
