package core

// The exact-MIP test oracle, part 2: mixed 0/1 integer programs
//
//	minimize    c·x
//	subject to  A x ≤ b,  x ≥ 0,  x_j ∈ {0,1} for j ∈ Integer
//
// solved by LP-relaxation branch-and-bound (the "branch-and-bound algorithm"
// reference [39] of the paper). Ursa's optimization engine is the
// specialised one-hot solver in solver.go; this generic solver takes the
// exact formulation of MIP (1) and is cross-checked against it.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Problem is a 0/1 mixed integer program.
type Problem struct {
	C       []float64
	A       [][]float64
	B       []float64
	Integer []bool // len == len(C); true marks binary variables
}

// MIPResult reports the solve outcome.
type MIPResult struct {
	Status Status
	X      []float64
	Obj    float64
	Nodes  int // branch-and-bound nodes explored
}

// SolveMIP runs depth-first branch and bound with best-first variable choice
// (most fractional binary variable).
func SolveMIP(p Problem) MIPResult {
	if len(p.Integer) != len(p.C) {
		panic("mip: len(Integer) != len(C)")
	}
	n := len(p.C)

	// Base relaxation: original constraints plus x_j ≤ 1 for binaries.
	baseA := make([][]float64, 0, len(p.A)+n)
	baseB := make([]float64, 0, len(p.B)+n)
	for i := range p.A {
		baseA = append(baseA, p.A[i])
		baseB = append(baseB, p.B[i])
	}
	for j := 0; j < n; j++ {
		if p.Integer[j] {
			row := make([]float64, n)
			row[j] = 1
			baseA = append(baseA, row)
			baseB = append(baseB, 1)
		}
	}

	best := MIPResult{Status: Infeasible, Obj: math.Inf(1)}
	nodes := 0

	// fixed[j]: -1 free, 0 or 1 fixed.
	var rec func(fixed []int)
	rec = func(fixed []int) {
		nodes++
		if nodes > 2_000_000 {
			panic("mip: node budget exceeded")
		}
		a := baseA
		b := baseB
		for j, v := range fixed {
			switch v {
			case 0:
				row := make([]float64, n)
				row[j] = 1
				a = append(a[:len(a):len(a)], row)
				b = append(b[:len(b):len(b)], 0)
			case 1:
				row := make([]float64, n)
				row[j] = -1
				a = append(a[:len(a):len(a)], row)
				b = append(b[:len(b):len(b)], -1)
			}
		}
		r := SolveLP(LP{C: p.C, A: a, B: b})
		if r.Status == Infeasible {
			return
		}
		if r.Status == Unbounded {
			// With binaries fixed/bounded this means the continuous part is
			// unbounded; propagate as the final answer.
			best = MIPResult{Status: Unbounded}
			return
		}
		if r.Obj >= best.Obj-1e-9 {
			return // bound: cannot beat incumbent
		}
		// Find the most fractional binary variable.
		branch := -1
		bestFrac := 1e-6
		for j := 0; j < n; j++ {
			if !p.Integer[j] || fixed[j] != -1 {
				continue
			}
			f := math.Abs(r.X[j] - math.Round(r.X[j]))
			if f > bestFrac {
				bestFrac = f
				branch = j
			}
		}
		if branch == -1 {
			// Integral (within tolerance): new incumbent.
			x := make([]float64, n)
			copy(x, r.X)
			for j := 0; j < n; j++ {
				if p.Integer[j] {
					x[j] = math.Round(x[j])
				}
			}
			best = MIPResult{Status: Optimal, X: x, Obj: r.Obj}
			return
		}
		// Explore the rounded side first (often finds incumbents quickly).
		first, second := 1, 0
		if r.X[branch] < 0.5 {
			first, second = 0, 1
		}
		for _, v := range []int{first, second} {
			if best.Status == Unbounded {
				return
			}
			fixed[branch] = v
			rec(fixed)
			fixed[branch] = -1
		}
	}

	fixed := make([]int, n)
	for j := range fixed {
		fixed[j] = -1
	}
	rec(fixed)
	best.Nodes = nodes
	return best
}

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c ≤ 6, binary → a=0? enumerate:
	// (1,0,1): w=5 v=17; (0,1,1): w=6 v=20; (1,1,0): w=7 infeasible → 20.
	r := SolveMIP(Problem{
		C:       []float64{-10, -13, -7},
		A:       [][]float64{{3, 4, 2}},
		B:       []float64{6},
		Integer: []bool{true, true, true},
	})
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if !near(r.Obj, -20) || r.X[0] != 0 || r.X[1] != 1 || r.X[2] != 1 {
		t.Fatalf("x=%v obj=%v", r.X, r.Obj)
	}
}

func TestIntegralityMatters(t *testing.T) {
	// LP relaxation of max x1+x2 s.t. 2x1+2x2 ≤ 3 gives 1.5; binary gives 1.
	r := SolveMIP(Problem{
		C:       []float64{-1, -1},
		A:       [][]float64{{2, 2}},
		B:       []float64{3},
		Integer: []bool{true, true},
	})
	if !near(r.Obj, -1) {
		t.Fatalf("obj = %v, want -1", r.Obj)
	}
}

func TestOneHotSelection(t *testing.T) {
	// Pick exactly one of three options (x1+x2+x3 = 1) minimizing cost with
	// a requirement row: value ≥ 5 where values are (3, 5, 9), costs (1,2,4).
	r := SolveMIP(Problem{
		C: []float64{1, 2, 4},
		A: [][]float64{
			{1, 1, 1}, {-1, -1, -1}, // equality
			{-3, -5, -9}, // value ≥ 5
		},
		B:       []float64{1, -1, -5},
		Integer: []bool{true, true, true},
	})
	if r.Status != Optimal || !near(r.Obj, 2) || r.X[1] != 1 {
		t.Fatalf("r = %+v", r)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	// x1 + x2 ≥ 3 with two binaries.
	r := SolveMIP(Problem{
		C:       []float64{1, 1},
		A:       [][]float64{{-1, -1}},
		B:       []float64{-3},
		Integer: []bool{true, true},
	})
	if r.Status != Infeasible {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 3y + x s.t. x ≥ 2.5 − 2y, x continuous ≥ 0, y binary.
	// y=1 → x ≥ 0.5 → obj 3.5; y=0 → x ≥ 2.5 → obj 2.5. Optimal y=0.
	r := SolveMIP(Problem{
		C:       []float64{1, 3},
		A:       [][]float64{{-1, -2}},
		B:       []float64{-2.5},
		Integer: []bool{false, true},
	})
	if r.Status != Optimal || !near(r.Obj, 2.5) || r.X[1] != 0 {
		t.Fatalf("r = %+v", r)
	}
}

// bruteForce enumerates all binary assignments (pure-binary problems only).
func bruteForce(p Problem) (float64, bool) {
	n := len(p.C)
	best := math.Inf(1)
	found := false
	for mask := 0; mask < 1<<n; mask++ {
		feasible := true
		for i := range p.A {
			lhs := 0.0
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					lhs += p.A[i][j]
				}
			}
			if lhs > p.B[i]+1e-9 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		obj := 0.0
		for j := 0; j < n; j++ {
			if mask>>j&1 == 1 {
				obj += p.C[j]
			}
		}
		if obj < best {
			best = obj
			found = true
		}
	}
	return best, found
}

// Property: on random pure-binary problems, B&B matches brute force.
func TestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(4)
		p := Problem{
			C:       make([]float64, n),
			A:       make([][]float64, m),
			B:       make([]float64, m),
			Integer: make([]bool, n),
		}
		for j := 0; j < n; j++ {
			p.C[j] = math.Round(rng.Float64()*20-10) / 2
			p.Integer[j] = true
		}
		for i := 0; i < m; i++ {
			p.A[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				p.A[i][j] = math.Round(rng.Float64()*10 - 3)
			}
			p.B[i] = math.Round(rng.Float64() * 8)
		}
		want, feasible := bruteForce(p)
		got := SolveMIP(p)
		if !feasible {
			return got.Status == Infeasible
		}
		return got.Status == Optimal && math.Abs(got.Obj-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeCountReported(t *testing.T) {
	r := SolveMIP(Problem{
		C:       []float64{-1, -1, -1},
		A:       [][]float64{{2, 2, 2}},
		B:       []float64{3},
		Integer: []bool{true, true, true},
	})
	if r.Nodes < 1 {
		t.Fatalf("Nodes = %d", r.Nodes)
	}
}
