// Package stats provides the statistical machinery Ursa relies on:
// descriptive statistics, percentile estimation, Welch's t-test (used by the
// backpressure profiler to detect latency convergence and by the resource
// controller to detect threshold crossings under noise), and the random
// distributions that drive the simulated services.
package stats

import (
	"cmp"
	"math"
	"sort"
	"sync"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 when len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// scratchPool recycles the working buffers of percentile queries so the
// metrics hot path allocates nothing in steady state. Buffers are shared
// across goroutines (experiment cells run on a worker pool), which sync.Pool
// handles; results never depend on pool state.
var scratchPool = sync.Pool{New: func() any {
	s := make([]float64, 0, 256)
	return &s
}}

// GetScratch returns a reusable empty float64 buffer. Append into it, use
// it, then hand it back with PutScratch.
func GetScratch() *[]float64 { return scratchPool.Get().(*[]float64) }

// PutScratch returns a buffer obtained from GetScratch to the pool.
func PutScratch(s *[]float64) {
	*s = (*s)[:0]
	scratchPool.Put(s)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted and is not
// modified. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	scratch := GetScratch()
	buf := append(*scratch, xs...)
	v := PercentileInPlace(buf, p)
	*scratch = buf[:0]
	PutScratch(scratch)
	return v
}

// PercentileInPlace is Percentile over a caller-owned buffer it is allowed
// to reorder: it quickselects the bracketing order statistics in expected
// O(n) instead of sorting, with no allocation. The result is identical to
// Percentile (same order statistics, same interpolation arithmetic).
func PercentileInPlace(xs []float64, p float64) float64 {
	return SelectPercentile(xs, p, identity)
}

func identity(x float64) float64 { return x }

// SelectPercentile is PercentileInPlace over values of any ordered type that
// conv maps to float64: it quickselects the bracketing order statistics of
// xs (reordering it) and converts only those two before interpolating. When
// conv is strictly increasing, the result is bit-identical to
// PercentileInPlace over the converted values, since both pick the same
// order statistics and run the same arithmetic on them.
func SelectPercentile[T cmp.Ordered](xs []T, p float64, conv func(T) float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return conv(selectK(xs, 0))
	}
	if p >= 100 {
		return conv(selectK(xs, n-1))
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	v := conv(selectK(xs, lo))
	if lo == hi {
		return v
	}
	// selectK leaves every element right of lo at or above xs[lo], so the
	// (lo+1)-th order statistic is the minimum of that tail.
	nxt := xs[lo+1]
	for _, x := range xs[lo+2:] {
		if cmp.Less(x, nxt) {
			nxt = x
		}
	}
	frac := rank - float64(lo)
	return v*(1-frac) + conv(nxt)*frac
}

// selectK partially reorders xs so xs[k] holds the k-th smallest element,
// everything before it is no larger and everything after it is no smaller.
// It orders like sort.Float64s (cmp.Less: ascending, NaNs first), so
// quickselect agrees with the sort-based reference on any input.
// Median-of-three pivoting with three-way (Dutch-flag) partitioning keeps it
// expected O(n) even on heavily duplicated inputs.
func selectK[T cmp.Ordered](xs []T, k int) T {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if cmp.Less(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if cmp.Less(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if cmp.Less(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case cmp.Less(xs[i], pivot):
				xs[lt], xs[i] = xs[i], xs[lt]
				lt++
				i++
			case cmp.Less(pivot, xs[i]):
				xs[i], xs[gt] = xs[gt], xs[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// PercentileSorted is Percentile for an already ascending-sorted slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// GridPercentiles fills out[i] with the ps[i]-th percentile of xs, sorting a
// pooled copy of xs once and reading every percentile from the sorted slice.
// For k percentiles over n samples this is one O(n log n) sort instead of k
// O(n) selections (each of which also copies xs), which is what makes cached
// percentile tables over a whole grid cheap to build. Results are bit-
// identical to calling Percentile(xs, p) per entry: both read the same order
// statistics with the same interpolation arithmetic. xs is not modified; an
// empty xs yields all zeros.
func GridPercentiles(xs, ps, out []float64) {
	if len(xs) == 0 {
		for i := range ps {
			out[i] = 0
		}
		return
	}
	scratch := GetScratch()
	buf := append(*scratch, xs...)
	sort.Float64s(buf)
	for i, p := range ps {
		out[i] = PercentileSorted(buf, p)
	}
	*scratch = buf[:0]
	PutScratch(scratch)
}
