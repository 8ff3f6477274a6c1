package core

// The exact-MIP test oracle, part 1: a dense two-phase primal simplex solver
// for linear programs in the form
//
//	minimize    c·x
//	subject to  A x ≤ b,  x ≥ 0
//
// It is the LP engine underneath the branch-and-bound MIP solver of
// mip_test.go, which solves the exact MIP (1) formulation of
// mipbridge_test.go to cross-check the specialised solver.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// LP is a linear program: minimize C·x subject to A x ≤ B, x ≥ 0.
type LP struct {
	C []float64
	A [][]float64
	B []float64
}

// LPResult is the outcome of solving an LP.
type LPResult struct {
	Status Status
	X      []float64
	Obj    float64
}

const eps = 1e-9

// SolveLP runs two-phase simplex with Bland's anti-cycling rule.
func SolveLP(p LP) LPResult {
	m, n := len(p.A), len(p.C)
	for i, row := range p.A {
		if len(row) != n {
			panic(fmt.Sprintf("lp: row %d has %d coefficients, want %d", i, len(row), n))
		}
	}
	if len(p.B) != m {
		panic("lp: len(B) != rows of A")
	}

	// Tableau columns: [x(n) | slack(m) | artificial(k) | rhs], where the
	// k artificials cover rows with negative b.
	negRows := 0
	for _, bv := range p.B {
		if bv < -eps {
			negRows++
		}
	}
	k := negRows
	nStruct := n + m // structural columns (decision + slack)
	cols := nStruct + k + 1
	t := make([][]float64, m+1)
	for i := range t {
		t[i] = make([]float64, cols)
	}
	basis := make([]int, m)
	artRows := []int{}
	ai := 0
	for i := 0; i < m; i++ {
		copy(t[i], p.A[i])
		t[i][n+i] = 1
		t[i][cols-1] = p.B[i]
		basis[i] = n + i
		if p.B[i] < -eps {
			// Negate the row so rhs ≥ 0 (slack coefficient becomes −1) and
			// add an artificial basis variable.
			for j := 0; j < cols; j++ {
				t[i][j] = -t[i][j]
			}
			col := nStruct + ai
			t[i][col] = 1
			basis[i] = col
			artRows = append(artRows, i)
			ai++
		}
	}

	if k > 0 {
		// Phase 1: minimize the sum of artificial variables.
		obj := t[m]
		for j := range obj {
			obj[j] = 0
		}
		for a := 0; a < k; a++ {
			obj[nStruct+a] = 1
		}
		for _, i := range artRows {
			for j := 0; j < cols; j++ {
				t[m][j] -= t[i][j]
			}
		}
		if !iterate(t, basis, cols, cols-1) {
			return LPResult{Status: Infeasible}
		}
		if -t[m][cols-1] > 1e-7 {
			return LPResult{Status: Infeasible}
		}
		// Drive remaining artificial variables out of the basis where
		// possible; rows where it isn't are redundant with artificial = 0.
		for i := 0; i < m; i++ {
			if basis[i] >= nStruct {
				for j := 0; j < nStruct; j++ {
					if math.Abs(t[i][j]) > eps {
						pivot(t, basis, i, j, cols)
						break
					}
				}
			}
		}
	}

	// Phase 2: install the real objective and price out basic columns.
	obj := t[m]
	for j := range obj {
		obj[j] = 0
	}
	for j := 0; j < n; j++ {
		obj[j] = p.C[j]
	}
	for i, bi := range basis {
		if bi < n && math.Abs(obj[bi]) > eps {
			coef := obj[bi]
			for j := 0; j < cols; j++ {
				obj[j] -= coef * t[i][j]
			}
		}
	}
	// Only structural columns may enter in phase 2.
	if !iterate(t, basis, cols, nStruct) {
		return LPResult{Status: Unbounded}
	}

	x := make([]float64, n)
	for i, bi := range basis {
		if bi < n {
			x[bi] = t[i][cols-1]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.C[j] * x[j]
	}
	return LPResult{Status: Optimal, X: x, Obj: objVal}
}

// iterate runs simplex pivots until optimal (true) or unbounded (false).
// Entering candidates are restricted to columns < maxEnter.
func iterate(t [][]float64, basis []int, cols, maxEnter int) bool {
	m := len(basis)
	for iter := 0; ; iter++ {
		if iter > 200000 {
			panic("lp: iteration limit exceeded (cycling?)")
		}
		// Entering column: Bland's rule — smallest index with negative
		// reduced cost.
		enter := -1
		for j := 0; j < maxEnter; j++ {
			if t[m][j] < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			return true
		}
		// Leaving row: minimum ratio, Bland tie-break on basis index.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][enter] > eps {
				ratio := t[i][cols-1] / t[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave == -1 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return false
		}
		pivot(t, basis, leave, enter, cols)
	}
}

func pivot(t [][]float64, basis []int, row, col, cols int) {
	pv := t[row][col]
	for j := 0; j < cols; j++ {
		t[row][j] /= pv
	}
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if math.Abs(f) <= eps {
			t[i][col] = 0
			continue
		}
		for j := 0; j < cols; j++ {
			t[i][j] -= f * t[row][j]
		}
	}
	basis[row] = col
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleMaximization(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
	r := SolveLP(LP{
		C: []float64{-3, -5},
		A: [][]float64{{1, 0}, {0, 2}, {3, 2}},
		B: []float64{4, 12, 18},
	})
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if !near(r.Obj, -36) || !near(r.X[0], 2) || !near(r.X[1], 6) {
		t.Fatalf("got x=%v obj=%v", r.X, r.Obj)
	}
}

func TestTrivialMinimumAtOrigin(t *testing.T) {
	r := SolveLP(LP{C: []float64{1, 1}, A: [][]float64{{1, 1}}, B: []float64{10}})
	if r.Status != Optimal || !near(r.Obj, 0) {
		t.Fatalf("r = %+v", r)
	}
}

func TestGreaterEqualConstraint(t *testing.T) {
	// min x + 2y s.t. x + y ≥ 4 (−x − y ≤ −4), y ≤ 3 → x=4, y=0, obj 4.
	r := SolveLP(LP{
		C: []float64{1, 2},
		A: [][]float64{{-1, -1}, {0, 1}},
		B: []float64{-4, 3},
	})
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if !near(r.Obj, 4) || !near(r.X[0], 4) {
		t.Fatalf("x=%v obj=%v", r.X, r.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 3.
	r := SolveLP(LP{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{1, -3},
	})
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min −x with x ≥ 0 and only a lower-bound style constraint.
	r := SolveLP(LP{C: []float64{-1}, A: [][]float64{{-1}}, B: []float64{0}})
	if r.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r.Status)
	}
}

func TestEqualityViaTwoInequalities(t *testing.T) {
	// min 2x + 3y s.t. x + y = 5 (≤ and ≥), x ≤ 3 → y ≥ 2; pick x=3,y=2 → 12.
	r := SolveLP(LP{
		C: []float64{2, 3},
		A: [][]float64{{1, 1}, {-1, -1}, {1, 0}},
		B: []float64{5, -5, 3},
	})
	if r.Status != Optimal || !near(r.Obj, 12) {
		t.Fatalf("r = %+v", r)
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// Beale's classic cycling example (with Bland's rule it must terminate).
	r := SolveLP(LP{
		C: []float64{-0.75, 150, -0.02, 6},
		A: [][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
			{0, 0, 1, 0},
		},
		B: []float64{0, 0, 1},
	})
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if !near(r.Obj, -0.05) {
		t.Fatalf("obj = %v, want -0.05", r.Obj)
	}
}

func TestRedundantConstraint(t *testing.T) {
	// Duplicate rows should not break phase 1/2.
	r := SolveLP(LP{
		C: []float64{1, 1},
		A: [][]float64{{-1, -1}, {-1, -1}, {1, 0}},
		B: []float64{-2, -2, 5},
	})
	if r.Status != Optimal || !near(r.Obj, 2) {
		t.Fatalf("r = %+v", r)
	}
}

// Property: on random feasible-by-construction problems, the solution
// satisfies all constraints and is at least as good as a random feasible
// point.
func TestRandomProblemsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		p := LP{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
		x0 := make([]float64, n) // a known feasible point
		for j := range x0 {
			x0[j] = rng.Float64() * 5
			p.C[j] = rng.Float64()*4 - 1
		}
		for i := 0; i < m; i++ {
			p.A[i] = make([]float64, n)
			lhs := 0.0
			for j := 0; j < n; j++ {
				p.A[i][j] = rng.Float64()*2 - 0.5
				lhs += p.A[i][j] * x0[j]
			}
			p.B[i] = lhs + rng.Float64() // slack ensures feasibility of x0
		}
		r := SolveLP(p)
		if r.Status == Infeasible {
			return false // x0 is feasible by construction
		}
		if r.Status == Unbounded {
			return true // possible with negative costs; fine
		}
		// Check feasibility of the reported optimum.
		for i := 0; i < m; i++ {
			lhs := 0.0
			for j := 0; j < n; j++ {
				if r.X[j] < -1e-7 {
					return false
				}
				lhs += p.A[i][j] * r.X[j]
			}
			if lhs > p.B[i]+1e-6 {
				return false
			}
		}
		// Optimality vs. the known feasible point.
		obj0 := 0.0
		for j := 0; j < n; j++ {
			obj0 += p.C[j] * x0[j]
		}
		return r.Obj <= obj0+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Fatal("status strings wrong")
	}
}
