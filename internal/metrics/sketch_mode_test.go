package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ursa/internal/sim"
	"ursa/internal/stats"
)

// latencyStream draws a deterministic lognormal-ish latency stream with the
// given seed, paired with strictly increasing timestamps spread over spanMin
// minutes.
func latencyStream(seed int64, n, spanMin int) ([]sim.Time, []float64) {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]sim.Time, n)
	vs := make([]float64, n)
	span := sim.Time(spanMin) * sim.Minute
	cur := sim.Time(0)
	step := span / sim.Time(n)
	ln := stats.LogNormalFromMeanCV(80, 0.9)
	for i := range ts {
		cur += sim.Time(rng.Int63n(int64(step)*2) + 1)
		ts[i] = cur
		vs[i] = ln.Sample(rng)
	}
	return ts, vs
}

// TestWindowedOutOfOrderRouting is the regression test for the silent
// out-of-order folding bug: a sample whose window precedes the newest one
// must be credited to the window it belongs to, not the newest window.
func TestWindowedOutOfOrderRouting(t *testing.T) {
	w := NewWindowed(sim.Minute)
	w.Add(10*sim.Second, 1)          // window 0
	w.Add(3*sim.Minute, 100)         // window 3 (newest)
	w.Add(30*sim.Second, 2)          // late arrival for window 0
	w.Add(sim.Minute+sim.Second, 50) // late arrival for never-seen window 1

	if n := w.Count(0, sim.Minute); n != 2 {
		t.Fatalf("window 0 count = %d, want 2 (late sample folded forward?)", n)
	}
	if n := w.Count(sim.Minute, 2*sim.Minute); n != 1 {
		t.Fatalf("window 1 count = %d, want 1 (inserted window lost)", n)
	}
	if n := w.Count(3*sim.Minute, 4*sim.Minute); n != 1 {
		t.Fatalf("window 3 count = %d, want 1 (late samples credited to newest)", n)
	}
	// Window starts must stay sorted for the binary searches.
	for i := 1; i < w.NumWindows(); i++ {
		if w.WindowStartAt(i-1) >= w.WindowStartAt(i) {
			t.Fatalf("window starts out of order at %d", i)
		}
	}
	if got := w.PercentileBetween(0, sim.Minute, 100); got != 2 {
		t.Fatalf("window 0 max = %v, want 2", got)
	}
}

// TestCounterSeriesOutOfOrderRouting: same regression for counters.
func TestCounterSeriesOutOfOrderRouting(t *testing.T) {
	c := NewCounterSeries(sim.Minute)
	c.Inc(10*sim.Second, 1)
	c.Inc(5*sim.Minute, 1)
	c.Inc(20*sim.Second, 1)           // late, existing window 0
	c.Inc(2*sim.Minute+sim.Second, 1) // late, never-seen window 2

	if got := c.Total(0, sim.Minute); got != 2 {
		t.Fatalf("window 0 total = %v, want 2", got)
	}
	if got := c.Total(2*sim.Minute, 3*sim.Minute); got != 1 {
		t.Fatalf("window 2 total = %v, want 1", got)
	}
	if got := c.Total(5*sim.Minute, 6*sim.Minute); got != 1 {
		t.Fatalf("window 5 total = %v, want 1", got)
	}
	if got := c.Total(0, sim.Hour); got != 4 {
		t.Fatalf("grand total = %v, want 4", got)
	}
}

// TestCounterSeriesTotalMatchesLinear cross-checks the prefix-sum Total
// (binary-searched bounds) against a brute-force recount over random
// Inc streams and random query ranges.
func TestCounterSeriesTotalMatchesLinear(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCounterSeries(sim.Minute)
		type ev struct {
			w sim.Time
		}
		var evs []ev
		cur := sim.Time(0)
		for i := 0; i < 3000; i++ {
			cur += sim.Time(rng.Int63n(int64(4 * sim.Second)))
			c.Inc(cur, 1)
			evs = append(evs, ev{cur / sim.Minute * sim.Minute})
		}
		for q := 0; q < 50; q++ {
			from := sim.Time(rng.Int63n(int64(cur)))
			to := from + sim.Time(rng.Int63n(int64(sim.Hour)))
			want := 0.0
			for _, e := range evs {
				if e.w >= from && e.w < to {
					want++
				}
			}
			if got := c.Total(from, to); got != want {
				t.Fatalf("seed %d: Total(%v,%v) = %v, want %v", seed, from, to, got, want)
			}
		}
	}
}

// TestWindowedSketchVsExact is the seeded sketch-vs-exact property test at
// the collector layer: across ≥40 seeds, sketch-mode PercentileBetween
// answers p50/p90/p99 within 2α of the exact collector fed the same
// (timestamp, value) stream — single windows and merged multi-window
// ranges alike.
func TestWindowedSketchVsExact(t *testing.T) {
	const alpha = 0.01
	for seed := int64(1); seed <= 44; seed++ {
		ts, vs := latencyStream(seed, 6000, 10)
		exact := NewWindowed(sim.Minute)
		sk := NewWindowedSketch(sim.Minute, alpha)
		for i := range ts {
			exact.Add(ts[i], vs[i])
			sk.Add(ts[i], vs[i])
		}
		horizon := ts[len(ts)-1] + sim.Minute
		if exact.Count(0, horizon) != sk.Count(0, horizon) {
			t.Fatalf("seed %d: counts differ", seed)
		}
		ranges := [][2]sim.Time{
			{0, horizon},                     // whole run (merged sketches)
			{0, sim.Minute},                  // single window
			{2 * sim.Minute, 7 * sim.Minute}, // partial range
		}
		for _, r := range ranges {
			vals := exact.Between(r[0], r[1])
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			for _, p := range []float64{50, 90, 99} {
				g := sk.PercentileBetween(r[0], r[1], p)
				if len(sorted) == 0 {
					if g != 0 {
						t.Fatalf("seed %d: empty range answered %v", seed, g)
					}
					continue
				}
				// The documented guarantee: within relative error α of the
				// bracketing order statistics (exact interpolates between
				// them, which can differ by more than α when windows are
				// small and tail gaps wide — see DESIGN.md §4e).
				rank := p / 100 * float64(len(sorted)-1)
				lo, hi := sorted[int(rank)], sorted[int(math.Ceil(rank))]
				if g < lo*(1-alpha)-1e-9 || g > hi*(1+alpha)+1e-9 {
					t.Fatalf("seed %d p%v [%v,%v): sketch %v outside α-band [%v, %v]",
						seed, p, r[0], r[1], g, lo, hi)
				}
			}
		}
		// Per-window grids: empty cells NaN in both; populated cells within
		// the strict α-band of the window's bracketing order statistics
		// (windows can hold few samples, where interpolation and the
		// sketch's floor-rank answer legitimately differ by more than 2α).
		eg := exact.PerWindowPercentile(horizon, 99)
		sg := sk.PerWindowPercentile(horizon, 99)
		byStart := map[sim.Time][]float64{}
		for i := 0; i < exact.NumWindows(); i++ {
			s := exact.WindowStartAt(i)
			byStart[s] = exact.Between(s, s+exact.Window())
		}
		for i := range eg {
			if math.IsNaN(eg[i]) != math.IsNaN(sg[i]) {
				t.Fatalf("seed %d window %d: emptiness disagrees", seed, i)
			}
			if math.IsNaN(eg[i]) {
				continue
			}
			samples := byStart[sim.Time(i)*sim.Minute]
			sorted := append([]float64(nil), samples...)
			sort.Float64s(sorted)
			rank := 99.0 / 100 * float64(len(sorted)-1)
			lo, hi := sorted[int(rank)], sorted[int(math.Ceil(rank))]
			if sg[i] < lo*(1-alpha)-1e-9 || sg[i] > hi*(1+alpha)+1e-9 {
				t.Fatalf("seed %d window %d: sketch %v outside α-band [%v, %v]",
					seed, i, sg[i], lo, hi)
			}
		}
	}
}

// TestWindowedSketchMemoryFlat is the run-length memory test: feeding 50×
// more samples into the same number of windows leaves the sketch-mode
// footprint essentially flat, while exact mode grows with sample count.
func TestWindowedSketchMemoryFlat(t *testing.T) {
	measure := func(w *Windowed, n int) int {
		rng := rand.New(rand.NewSource(9))
		ln := stats.LogNormalFromMeanCV(80, 0.9)
		span := 10 * sim.Minute
		for i := 0; i < n; i++ {
			w.Add(sim.Time(i)*span/sim.Time(n), ln.Sample(rng))
		}
		return w.FootprintBytes()
	}
	skSmall := measure(NewWindowedSketch(sim.Minute, 0.01), 4000)
	skBig := measure(NewWindowedSketch(sim.Minute, 0.01), 200000)
	exSmall := measure(NewWindowed(sim.Minute), 4000)
	exBig := measure(NewWindowed(sim.Minute), 200000)
	if skBig > 2*skSmall {
		t.Fatalf("sketch footprint grew with samples: %d -> %d bytes", skSmall, skBig)
	}
	if exBig < 20*exSmall {
		t.Fatalf("exact footprint unexpectedly flat: %d -> %d bytes (test premise broken)", exSmall, exBig)
	}
	if skBig*10 > exBig {
		t.Fatalf("sketch mode (%d B) not materially smaller than exact (%d B)", skBig, exBig)
	}
}

// TestWindowedTrimRing: the head-indexed ring keeps samples queryable and
// correct across repeated Trims.
func TestWindowedTrimRing(t *testing.T) {
	w := NewWindowed(sim.Minute)
	for i := 0; i < 100; i++ {
		w.Add(sim.Time(i)*sim.Minute, float64(i))
		if i >= 20 {
			w.Trim(sim.Time(i-10) * sim.Minute) // rolling 10-minute retention
		}
	}
	if got := w.NumWindows(); got != 11 {
		t.Fatalf("live windows after rolling trim = %d, want 11", got)
	}
	if s, v := w.WindowStartAt(0), w.Between(0, 90*sim.Minute); s != 89*sim.Minute || len(v) != 1 || v[0] != 89 {
		t.Fatalf("oldest retained window start=%v v=%v", s, v)
	}
	if got := w.PercentileBetween(89*sim.Minute, 100*sim.Minute, 100); got != 99 {
		t.Fatalf("max over retained = %v", got)
	}
}

// TestCounterSeriesTrimAndCap mirrors the ring behavior for counters: Trim
// drops old windows without disturbing retained totals.
func TestCounterSeriesTrimAndCap(t *testing.T) {
	c := NewCounterSeries(sim.Minute)
	for i := 0; i < 100; i++ {
		c.Inc(sim.Time(i)*sim.Minute, 1)
		if i >= 20 {
			c.Trim(sim.Time(i-10) * sim.Minute)
		}
	}
	if got := c.Total(0, 200*sim.Minute); got != 11 {
		t.Fatalf("retained total = %v, want 11", got)
	}
	if got := c.Total(95*sim.Minute, 97*sim.Minute); got != 2 {
		t.Fatalf("sub-range total = %v, want 2", got)
	}
}

// TestLatencyRecorderSketchMode: per-class collectors inherit sketch mode
// and trim together.
func TestLatencyRecorderSketchMode(t *testing.T) {
	r := NewLatencyRecorderSketch(sim.Minute, 0.01)
	for i := 0; i < 1000; i++ {
		r.Record(sim.Time(i)*sim.Second, "get", float64(50+i%100))
		r.Record(sim.Time(i)*sim.Second, "post", float64(200+i%50))
	}
	if !r.Class("get").Sketched() {
		t.Fatal("class collector not sketch-backed")
	}
	got := r.Class("get").PercentileBetween(0, sim.Hour, 50)
	if got < 95 || got > 105 {
		t.Fatalf("sketched p50 = %v, want ≈99–100", got)
	}
	r.Trim(10 * sim.Minute)
	if n := r.Class("post").Count(0, 10*sim.Minute); n != 0 {
		t.Fatalf("post-trim count before cutoff = %d", n)
	}
	if r.FootprintBytes() <= 0 {
		t.Fatal("recorder footprint not accounted")
	}
}

// TestWindowedSketchRawAccessorsPanic: sketch mode retains no raw samples,
// so the exact-only read Between must fail loudly instead of returning an
// empty slice a caller could mistake for "no traffic".
func TestWindowedSketchRawAccessorsPanic(t *testing.T) {
	w := NewWindowedSketch(sim.Minute, 0.05)
	w.Add(0, 1)
	w.Add(sim.Second, 2)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Between") {
				t.Errorf("Between on a sketch collector: recovered %v, want a panic naming it", r)
			}
		}()
		w.Between(0, sim.Hour)
	}()
	if got := w.WindowCountAt(0); got != 2 {
		t.Fatalf("WindowCountAt = %d", got)
	}
	if got := w.WindowQuantileAt(0, 100); math.Abs(got-2) > 0.2 {
		t.Fatalf("WindowQuantileAt(100) = %v, want ≈2", got)
	}
}

// TestWindowedSketchBenchFixtureBucketExact: on BenchmarkWindowedSketchPercentile's
// fixture, whose windows' value ranges wrap so the scratch merge extends
// downward, every multi-window quantile equals that of one sketch fed the
// range's samples directly — the in-place downward shift is bucket-exact.
func TestWindowedSketchBenchFixtureBucketExact(t *testing.T) {
	const windows, perWindow = 480, 64
	w := benchWindowedSketch(windows, perWindow)
	for _, r := range [][2]int{{200, 230}, {0, 480}, {13, 14}, {97, 311}} {
		whole := stats.NewSketch(0.01)
		for i := r[0]; i < r[1]; i++ {
			for j := 0; j < perWindow; j++ {
				whole.Add(float64((i*perWindow + j) % 997))
			}
		}
		from, to := sim.Time(r[0])*sim.Minute, sim.Time(r[1])*sim.Minute
		for _, p := range []float64{0, 1, 50, 90, 99, 99.9, 100} {
			if got, want := w.PercentileBetween(from, to, p), whole.Quantile(p); got != want {
				t.Fatalf("windows %v p%v = %v, want %v", r, p, got, want)
			}
		}
	}
}
