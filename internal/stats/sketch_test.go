package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sketchStream draws a deterministic stream whose shape varies by seed:
// lognormal latencies, uniform, exponential, or a bimodal mix — the
// distributions windowed latency collectors actually see.
func sketchStream(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	switch seed % 4 {
	case 0:
		ln := LogNormalFromMeanCV(100, 0.8)
		for i := range out {
			out[i] = ln.Sample(rng)
		}
	case 1:
		for i := range out {
			out[i] = 1 + 999*rng.Float64()
		}
	case 2:
		for i := range out {
			out[i] = rng.ExpFloat64() * 50
		}
	default:
		for i := range out {
			if rng.Float64() < 0.8 {
				out[i] = 10 + 5*rng.NormFloat64()
			} else {
				out[i] = 200 + 40*rng.NormFloat64()
			}
		}
	}
	return out
}

// TestSketchRelativeErrorProperty pins the sketch's headline guarantee
// across ≥40 seeds and four stream shapes: for p50/p90/p99 the sketch
// answer is within relative error α of the bracketing order statistics
// (the strict DDSketch bound), and within 2α of the interpolated exact
// percentile the rest of the repo reports (the documented tolerance in
// DESIGN.md §4e).
func TestSketchRelativeErrorProperty(t *testing.T) {
	const alpha = 0.01
	for seed := int64(1); seed <= 44; seed++ {
		xs := sketchStream(seed, 20000)
		s := NewSketch(alpha)
		for _, x := range xs {
			s.Add(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{50, 90, 99} {
			got := s.Quantile(p)
			rank := p / 100 * float64(len(xs)-1)
			lo, hi := sorted[int(rank)], sorted[int(math.Ceil(rank))]
			// Strict bound: within α of the bracketing order statistics.
			if got < lo*(1-alpha)-1e-12 || got > hi*(1+alpha)+1e-12 {
				t.Fatalf("seed %d p%v: sketch %v outside α-band of order stats [%v, %v]",
					seed, p, got, lo, hi)
			}
			// Documented tolerance vs the interpolated exact percentile.
			exact := PercentileSorted(sorted, p)
			if math.Abs(got-exact) > 2*alpha*math.Abs(exact)+1e-9 {
				t.Fatalf("seed %d p%v: sketch %v vs exact %v exceeds 2α", seed, p, got, exact)
			}
		}
	}
}

// TestSketchMergeEquivalence: sketching shards and merging is bucket-exact
// versus sketching the whole stream — the property sharded managers and
// per-window rollups rely on.
func TestSketchMergeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		xs := sketchStream(seed, 9000)
		whole := NewSketch(0.02)
		for _, x := range xs {
			whole.Add(x)
		}
		merged := NewSketch(0.02)
		for i := 0; i < len(xs); i += 1500 {
			shard := NewSketch(0.02)
			for _, x := range xs[i : i+1500] {
				shard.Add(x)
			}
			merged.Merge(shard)
		}
		if merged.Count() != whole.Count() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Fatalf("seed %d: merged count/min/max differ", seed)
		}
		for p := 0.0; p <= 100; p += 2.5 {
			if merged.Quantile(p) != whole.Quantile(p) {
				t.Fatalf("seed %d p%v: merged %v != whole %v", seed, p,
					merged.Quantile(p), whole.Quantile(p))
			}
		}
	}
}

func TestSketchSerializationRoundTrip(t *testing.T) {
	s := NewSketch(0.01)
	for _, x := range sketchStream(3, 5000) {
		s.Add(x)
	}
	s.Add(0)
	s.Add(-4.5)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != s.Count() || back.Min() != s.Min() || back.Max() != s.Max() || back.Alpha() != s.Alpha() {
		t.Fatal("round-trip lost header state")
	}
	for p := 0.0; p <= 100; p += 1 {
		if back.Quantile(p) != s.Quantile(p) {
			t.Fatalf("p%v: %v != %v after round trip", p, back.Quantile(p), s.Quantile(p))
		}
	}
	// A decoded sketch keeps working: adds and merges land in the same bins.
	back.Add(123.4)
	s.Add(123.4)
	if back.Quantile(99) != s.Quantile(99) {
		t.Fatal("decoded sketch diverged after Add")
	}
}

func TestSketchEmptyAndEdgeQuantiles(t *testing.T) {
	s := NewSketch(0.01)
	if !math.IsNaN(s.Quantile(50)) {
		t.Fatal("empty sketch should answer NaN")
	}
	s.Add(42)
	for _, p := range []float64{0, 50, 100} {
		if got := s.Quantile(p); got != 42 {
			t.Fatalf("single value p%v = %v", p, got)
		}
	}
	s2 := NewSketch(0.01)
	s2.Add(-10)
	s2.Add(0)
	s2.Add(10)
	if got := s2.Quantile(0); got != -10 {
		t.Fatalf("p0 = %v, want exact min", got)
	}
	if got := s2.Quantile(100); got != 10 {
		t.Fatalf("p100 = %v, want exact max", got)
	}
	if got := s2.Quantile(50); got != 0 {
		t.Fatalf("p50 = %v, want zero bucket", got)
	}
}

func TestSketchMergeAlphaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic merging sketches with different alpha")
		}
	}()
	a, b := NewSketch(0.01), NewSketch(0.02)
	b.Add(1)
	a.Merge(b)
}

// TestSketchCollapseKeepsHighQuantiles: with a small bucket cap the store
// collapses its lowest buckets. Quantiles that land inside the collapsed
// region lose the guarantee (by design — DDSketch trades the low tail for
// the memory cap), but quantiles above the collapse floor keep the α bound.
// 512 buckets at α=1% retain a ~2.8×10⁴ dynamic range below the max, so on
// a stream spanning 9 decades the upper half of the distribution is safe.
func TestSketchCollapseKeepsHighQuantiles(t *testing.T) {
	const alpha = 0.01
	s := NewSketchBins(alpha, 512)
	rng := rand.New(rand.NewSource(7))
	var xs []float64
	for i := 0; i < 50000; i++ {
		// 9 orders of magnitude — far more range than 512 buckets cover.
		x := math.Pow(10, rng.Float64()*9-3)
		xs = append(xs, x)
		s.Add(x)
	}
	if got := len(s.pos.bins); got > 512 {
		t.Fatalf("store grew to %d bins, cap 512", got)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{75, 95, 99, 99.9} {
		got := s.Quantile(p)
		rank := p / 100 * float64(len(xs)-1)
		lo, hi := sorted[int(rank)], sorted[int(math.Ceil(rank))]
		if got < lo*(1-alpha)-1e-12 || got > hi*(1+alpha)+1e-12 {
			t.Fatalf("p%v after collapse: %v outside [%v, %v] α-band", p, got, lo, hi)
		}
	}
	// A quantile below the collapse floor still answers something sane:
	// clamped into the data range, never below the true value (collapsing
	// low buckets can only shift low quantiles upward).
	exactP1 := PercentileSorted(sorted, 1)
	if got := s.Quantile(1); got < exactP1*(1-alpha) || got > s.Max() {
		t.Fatalf("collapsed-region p1 = %v, want ≥ %v and ≤ max", got, exactP1)
	}
}

func TestSketchResetAndClone(t *testing.T) {
	s := NewSketch(0.01)
	for _, x := range sketchStream(5, 2000) {
		s.Add(x)
	}
	c := s.Clone()
	s.Reset()
	if s.Count() != 0 || !math.IsNaN(s.Quantile(50)) {
		t.Fatal("Reset left state behind")
	}
	if c.Count() != 2000 {
		t.Fatal("Clone shares state with reset original")
	}
	s.Add(5)
	if c.Quantile(50) == 5 {
		t.Fatal("Clone aliases original bins")
	}
}

func TestSketchFootprintBounded(t *testing.T) {
	s := NewSketch(0.01)
	var grew []int
	for i := 0; i < 1_000_000; i++ {
		s.Add(1 + float64(i%1000))
		if i == 1000 || i == 999_999 {
			grew = append(grew, s.FootprintBytes())
		}
	}
	if grew[1] > grew[0]*2 {
		t.Fatalf("footprint grew with sample count: %d -> %d bytes", grew[0], grew[1])
	}
}

// TestSketchWarmMergeAllocFree: a Reset scratch sketch keeps its bin
// capacity, so re-merging window sketches whose ranges descend — every merge
// extends the store downward — shifts within that capacity and allocates
// nothing. Multi-window PercentileBetween in sketch mode and the merged
// all-class view both merge this way.
func TestSketchWarmMergeAllocFree(t *testing.T) {
	srcs := make([]*Sketch, 8)
	for i := range srcs {
		srcs[i] = NewSketch(0.01)
		for j := 0; j < 200; j++ {
			srcs[i].Add(float64((len(srcs)-i)*100 + j))
		}
	}
	scratch := NewSketch(0.01)
	merge := func() {
		scratch.Reset()
		for _, s := range srcs {
			scratch.Merge(s)
		}
	}
	merge() // warm: the first pass sizes the bins
	if n := testing.AllocsPerRun(100, merge); n != 0 {
		t.Fatalf("warm scratch merge allocates %v times, want 0", n)
	}
	whole := NewSketch(0.01)
	for _, s := range srcs {
		for j := 0; j < 200; j++ {
			whole.Add(s.Min() + float64(j))
		}
	}
	for p := 0.0; p <= 100; p += 2.5 {
		if scratch.Quantile(p) != whole.Quantile(p) {
			t.Fatalf("p%v: merged %v != whole %v", p, scratch.Quantile(p), whole.Quantile(p))
		}
	}
}
