package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Sketch is a mergeable quantile sketch with a relative-error guarantee, in
// the DDSketch family: values are counted into logarithmically-spaced buckets
// sized so every bucket's representative value is within a factor (1±α) of
// any value it covers. Quantile queries therefore answer within relative
// error α of the true order statistic, using memory proportional to the
// dynamic range of the data (log_γ(max/min) buckets) instead of the sample
// count. Two sketches built with the same α merge exactly — the merged
// sketch is bucket-for-bucket identical to one built over the concatenated
// stream — which is what lets per-shard or per-window summaries roll up into
// run-level percentiles without retaining raw samples.
//
// The bucket store is bounded: when the dynamic range would exceed MaxBins
// buckets, the lowest buckets collapse into one, trading accuracy at the
// low quantiles (which bounded-memory monitoring systems accept) for a hard
// memory cap. Values with magnitude below zeroThreshold are counted exactly
// in a dedicated zero bucket; negative values go to a mirrored store.
type Sketch struct {
	alpha   float64
	gamma   float64 // (1+α)/(1−α): bucket i covers (γ^(i−1), γ^i]
	lnGamma float64
	maxBins int

	pos, neg store
	zero     int64
	count    int64
	sum      float64
	min, max float64
}

// DefaultSketchBins bounds the per-store bucket count. 2048 buckets at
// α = 1% cover ~17 orders of magnitude of dynamic range — far beyond any
// latency distribution — so collapse only engages on pathological streams.
const DefaultSketchBins = 2048

// zeroThreshold is the smallest magnitude tracked logarithmically; values
// closer to zero are counted in the exact zero bucket.
const zeroThreshold = 1e-9

// NewSketch builds a sketch with relative-error bound alpha (0 < alpha < 1)
// and the default bucket cap.
func NewSketch(alpha float64) *Sketch {
	return NewSketchBins(alpha, DefaultSketchBins)
}

// NewSketchBins is NewSketch with an explicit per-store bucket cap
// (maxBins ≤ 0 means unbounded).
func NewSketchBins(alpha float64, maxBins int) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("stats: sketch alpha %v out of (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		maxBins: maxBins,
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Alpha reports the relative-error bound the sketch was built with.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Count reports the number of values added.
func (s *Sketch) Count() int64 { return s.count }

// Sum reports the running sum of added values.
func (s *Sketch) Sum() float64 { return s.sum }

// Min reports the exact minimum added value (+Inf when empty).
func (s *Sketch) Min() float64 { return s.min }

// Max reports the exact maximum added value (−Inf when empty).
func (s *Sketch) Max() float64 { return s.max }

// Add counts one value.
func (s *Sketch) Add(v float64) { s.AddN(v, 1) }

// AddN counts a value n times.
func (s *Sketch) AddN(v float64, n int64) {
	if n <= 0 {
		return
	}
	s.count += n
	s.sum += v * float64(n)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	switch {
	case v > zeroThreshold:
		s.pos.add(s.index(v), n, s.maxBins)
	case v < -zeroThreshold:
		s.neg.add(s.index(-v), n, s.maxBins)
	default:
		s.zero += n
	}
}

// index maps a positive value to its bucket: the smallest i with γ^i ≥ v.
func (s *Sketch) index(v float64) int {
	return int(math.Ceil(math.Log(v) / s.lnGamma))
}

// bucketValue is the representative of bucket i: the midpoint 2γ^i/(1+γ),
// within relative error α of every value in (γ^(i−1), γ^i].
func (s *Sketch) bucketValue(i int) float64 {
	return math.Exp(float64(i)*s.lnGamma) * 2 / (1 + s.gamma)
}

// Quantile reports the p-th percentile (0 ≤ p ≤ 100) of the added values,
// within relative error α of the corresponding order statistic (clamped to
// the exact [min, max]). NaN when the sketch is empty. The rank convention
// matches stats.Percentile: rank = p/100·(n−1), answered at ⌊rank⌋.
func (s *Sketch) Quantile(p float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := int64(p / 100 * float64(s.count-1))
	cum := int64(0)
	// Ascending value order: most-negative first (highest neg bucket), then
	// the zero bucket, then positives.
	for i := len(s.neg.bins) - 1; i >= 0; i-- {
		cum += s.neg.bins[i]
		if cum > rank {
			return s.clamp(-s.bucketValue(s.neg.offset + i))
		}
	}
	cum += s.zero
	if cum > rank {
		return s.clamp(0)
	}
	for i, c := range s.pos.bins {
		cum += c
		if cum > rank {
			return s.clamp(s.bucketValue(s.pos.offset + i))
		}
	}
	return s.max
}

func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Merge folds o into s. Both sketches must share the same α; bucket counts
// add exactly, so merging shard sketches is equivalent to sketching the
// concatenated stream. o is left unchanged.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if o.alpha != s.alpha {
		panic(fmt.Sprintf("stats: merging sketches with different alpha (%v vs %v)", s.alpha, o.alpha))
	}
	s.count += o.count
	s.sum += o.sum
	s.zero += o.zero
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.pos.merge(&o.pos, s.maxBins)
	s.neg.merge(&o.neg, s.maxBins)
}

// Reset empties the sketch, keeping its α, bucket cap and bin capacity so a
// pooled scratch sketch can be reused without reallocating.
func (s *Sketch) Reset() {
	s.pos.reset()
	s.neg.reset()
	s.zero, s.count, s.sum = 0, 0, 0
	s.min, s.max = math.Inf(1), math.Inf(-1)
}

// Clone returns an independent deep copy.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.pos.bins = append([]int64(nil), s.pos.bins...)
	c.neg.bins = append([]int64(nil), s.neg.bins...)
	return &c
}

// FootprintBytes estimates the retained heap bytes of the sketch: the fixed
// header plus the bucket arrays. It is the accounting the bounded-memory
// telemetry tests and the bytes/window benchmark report.
func (s *Sketch) FootprintBytes() int {
	const header = 14 * 8 // struct scalars + two slice headers
	return header + 8*(cap(s.pos.bins)+cap(s.neg.bins))
}

// sketchJSON is the serialized form: everything needed to reconstruct the
// sketch exactly, with bucket arrays as (offset, counts) pairs.
type sketchJSON struct {
	Alpha   float64 `json:"alpha"`
	MaxBins int     `json:"maxBins"`
	Zero    int64   `json:"zero,omitempty"`
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	PosOff  int     `json:"posOffset,omitempty"`
	Pos     []int64 `json:"pos,omitempty"`
	NegOff  int     `json:"negOffset,omitempty"`
	Neg     []int64 `json:"neg,omitempty"`
}

// MarshalJSON serializes the sketch. Infinite min/max (empty sketch) are
// encoded as nulls via the count==0 convention: decoders restore them.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	j := sketchJSON{
		Alpha: s.alpha, MaxBins: s.maxBins,
		Zero: s.zero, Count: s.count, Sum: s.sum,
		PosOff: s.pos.offset, Pos: s.pos.bins,
		NegOff: s.neg.offset, Neg: s.neg.bins,
	}
	if s.count > 0 {
		j.Min, j.Max = s.min, s.max
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores a sketch serialized by MarshalJSON.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var j sketchJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Alpha <= 0 || j.Alpha >= 1 {
		return fmt.Errorf("stats: sketch alpha %v out of (0,1)", j.Alpha)
	}
	*s = *NewSketchBins(j.Alpha, j.MaxBins)
	s.zero, s.count, s.sum = j.Zero, j.Count, j.Sum
	if j.Count > 0 {
		s.min, s.max = j.Min, j.Max
	}
	s.pos = store{offset: j.PosOff, bins: append([]int64(nil), j.Pos...)}
	s.neg = store{offset: j.NegOff, bins: append([]int64(nil), j.Neg...)}
	return nil
}

// store is a contiguous run of bucket counts; bins[i] counts bucket
// offset+i. Growth extends the run; exceeding maxBins collapses the lowest
// buckets into the lowest retained one (DDSketch's collapsing strategy:
// extreme low quantiles degrade, high quantiles keep the α bound).
type store struct {
	offset int
	bins   []int64
}

func (st *store) reset() {
	for i := range st.bins {
		st.bins[i] = 0
	}
	st.bins = st.bins[:0]
	st.offset = 0
}

func (st *store) add(idx int, n int64, maxBins int) {
	if len(st.bins) == 0 {
		st.offset = idx
		st.bins = append(st.bins[:0], n)
		return
	}
	lo, hi := st.offset, st.offset+len(st.bins)-1
	switch {
	case idx < lo:
		// The lowest index the cap allows is hi−maxBins+1; grow the store
		// down to it (or to idx if that fits), then fold anything below the
		// floor into the floor bucket.
		floor := idx
		if maxBins > 0 && hi-idx+1 > maxBins {
			floor = hi - maxBins + 1
		}
		if floor < lo {
			st.growDown(lo - floor)
			st.offset = floor
		}
		if idx < st.offset {
			st.bins[0] += n
			return
		}
	case idx > hi:
		for i := hi + 1; i <= idx; i++ {
			st.bins = append(st.bins, 0)
		}
		if maxBins > 0 && len(st.bins) > maxBins {
			st.collapseLowest(len(st.bins) - maxBins)
		}
	}
	st.bins[idx-st.offset] += n
}

// growDown prepends k zero buckets, shifting within the existing capacity
// when it fits so a warmed (Reset and reused) store extends downward without
// allocating.
func (st *store) growDown(k int) {
	n := len(st.bins) + k
	if n > cap(st.bins) {
		grown := make([]int64, n)
		copy(grown[k:], st.bins)
		st.bins = grown
		return
	}
	st.bins = st.bins[:n]
	copy(st.bins[k:], st.bins[:n-k])
	clear(st.bins[:k])
}

// collapseLowest folds the k lowest buckets into bucket k, then drops them.
func (st *store) collapseLowest(k int) {
	var sum int64
	for i := 0; i <= k && i < len(st.bins); i++ {
		sum += st.bins[i]
	}
	st.bins[k] = sum
	st.bins = append(st.bins[:0], st.bins[k:]...)
	st.offset += k
}

func (st *store) merge(o *store, maxBins int) {
	for i, c := range o.bins {
		if c != 0 {
			st.add(o.offset+i, c, maxBins)
		}
	}
}
