package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ursa/internal/stats"
)

// This file carries the explicit form of the paper's Theorem 1 as test
// helpers, so the theorem is testable on its own:
//
//	t_c(x_c) ≤ Σ t_i(x_i)   whenever   100 − x_c ≥ Σ (100 − x_i)
//
// for a chain S_1..S_n with arbitrary (even adversarially correlated) joint
// latency distributions. The optimizer does not call these helpers: its
// percentile DP enforces the same side condition through integer residual
// budgets (residualUnits).

// ResidualBudgetOK reports whether a percentile decomposition satisfies the
// Theorem 1 side condition: the per-service residuals fit the end-to-end
// residual budget.
func ResidualBudgetOK(xc float64, xs []float64) bool {
	budget := 100 - xc
	used := 0.0
	for _, x := range xs {
		used += 100 - x
	}
	return used <= budget+1e-9
}

// LatencyBound computes the Theorem 1 upper bound Σ t_i(x_i) from sampled
// per-service latency distributions. It panics when the decomposition does
// not satisfy the residual condition — a bound computed from an invalid
// decomposition is not a bound.
func LatencyBound(xc float64, dists [][]float64, xs []float64) float64 {
	if len(dists) != len(xs) {
		panic("core: LatencyBound needs one percentile per distribution")
	}
	if !ResidualBudgetOK(xc, xs) {
		panic("core: percentile decomposition violates the Theorem 1 residual condition")
	}
	sum := 0.0
	for i, d := range dists {
		sum += stats.Percentile(d, xs[i])
	}
	return sum
}

// EqualSplit returns the equal-residual decomposition for a chain of length
// n at end-to-end percentile xc: every x_i = 100 − (100−x_c)/n. It always
// satisfies the residual condition with equality.
func EqualSplit(xc float64, n int) []float64 {
	out := make([]float64, n)
	share := (100 - xc) / float64(n)
	for i := range out {
		out[i] = 100 - share
	}
	return out
}

func TestResidualBudgetOK(t *testing.T) {
	if !ResidualBudgetOK(99, []float64{99.5, 99.5}) {
		t.Fatal("0.5+0.5 = 1 should satisfy a 1%% budget")
	}
	if ResidualBudgetOK(99, []float64{99, 99.5}) {
		t.Fatal("1+0.5 > 1 should fail")
	}
	if !ResidualBudgetOK(50, EqualSplit(50, 5)) {
		t.Fatal("equal split must satisfy the budget")
	}
}

func TestEqualSplit(t *testing.T) {
	xs := EqualSplit(99, 4)
	for _, x := range xs {
		if x != 99.75 {
			t.Fatalf("EqualSplit = %v", xs)
		}
	}
	if !ResidualBudgetOK(99, xs) {
		t.Fatal("equal split violates its own budget")
	}
}

func TestLatencyBoundPanicsOnInvalidDecomposition(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid decomposition")
		}
	}()
	LatencyBound(99, [][]float64{{1}, {2}}, []float64{99, 99})
}

// TestTheorem1HoldsOnSimulatedChains verifies the bound on adversarially
// correlated synthetic chains — the strongest claim of the theorem.
func TestTheorem1HoldsOnSimulatedChains(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		N := 3000
		dists := make([][]float64, n)
		for i := range dists {
			dists[i] = make([]float64, N)
		}
		e2e := make([]float64, N)
		// Mixture: comonotone (worst case for sums) and independent parts.
		for k := 0; k < N; k++ {
			u := rng.Float64()
			for i := 0; i < n; i++ {
				var v float64
				if k%2 == 0 {
					v = u * float64(i+1) * 10 // perfectly correlated
				} else {
					v = rng.ExpFloat64() * float64(i+1)
				}
				dists[i][k] = v
				e2e[k] += v
			}
		}
		xc := 95.0
		xs := EqualSplit(xc, n)
		bound := LatencyBound(xc, dists, xs)
		actual := stats.Percentile(e2e, xc)
		return actual <= bound*1.01 // tiny interpolation tolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
