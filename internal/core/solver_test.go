package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomModel generates a seeded random optimization model: 1–5 services,
// 1–3 request classes, 1–3 targets with partially shared paths and visit
// counts up to 2, noisy latency distributions, a mix of loose and
// unsatisfiable latency targets, and occasionally the equal-split ablation
// or a tiny search budget. It is the input space for the solver-equivalence
// property test.
func randomModel(rng *rand.Rand) *Model {
	nSvc := 1 + rng.Intn(5)
	nCls := 1 + rng.Intn(3)
	classes := make([]string, nCls)
	for c := range classes {
		classes[c] = fmt.Sprintf("c%d", c)
	}
	profiles := make(map[string]*Profile, nSvc)
	loads := make(map[string]map[string]float64, nSvc)
	svcs := make([]string, nSvc)
	for i := range svcs {
		name := fmt.Sprintf("svc%02d", i)
		svcs[i] = name
		nPts := 1 + rng.Intn(4)
		pts := make([]LPRPoint, 0, nPts)
		for pi := 0; pi < nPts; pi++ {
			lpr := 20 * float64(pi+1) * (0.8 + 0.4*rng.Float64())
			pt := LPRPoint{
				Replicas:    nPts - pi,
				LPR:         map[string]float64{},
				RateSamples: map[string][]float64{},
				Latency:     map[string][]float64{},
			}
			for _, cls := range classes {
				pt.LPR[cls] = lpr * (0.9 + 0.2*rng.Float64())
				pt.RateSamples[cls] = []float64{lpr * 0.95, lpr, lpr * 1.05}
				n := 30 + rng.Intn(120)
				samples := make([]float64, n)
				base := 5 + 20*float64(pi+1)*rng.Float64()
				for k := range samples {
					samples[k] = base * math.Exp(rng.NormFloat64()*0.5)
				}
				pt.Latency[cls] = samples
			}
			pts = append(pts, pt)
		}
		profiles[name] = syntheticProfile(name, 1+rng.Float64()*7, pts...)
		ld := map[string]float64{}
		for _, cls := range classes {
			if rng.Float64() < 0.8 {
				ld[cls] = 5 + rng.Float64()*100
			}
		}
		loads[name] = ld
	}

	percGrid := []float64{50, 90, 95, 99, 99.5, 99.9}
	tightness := []float64{0.3, 1, 2, 6, 25}
	nTgt := 1 + rng.Intn(3)
	targets := make([]ClassTarget, 0, nTgt)
	for t := 0; t < nTgt; t++ {
		cls := classes[rng.Intn(nCls)]
		pathLen := 1 + rng.Intn(nSvc)
		perm := rng.Perm(nSvc)[:pathLen]
		path := make([]PathVisit, 0, pathLen)
		for _, si := range perm {
			path = append(path, PathVisit{Service: svcs[si], Class: cls, Count: 1 + rng.Intn(2)})
		}
		targets = append(targets, ClassTarget{
			Name:       fmt.Sprintf("t%d-%s", t, cls),
			Percentile: percGrid[rng.Intn(len(percGrid))],
			TargetMs:   tightness[rng.Intn(len(tightness))] * 30 * float64(pathLen),
			Path:       path,
		})
	}
	m := &Model{Profiles: profiles, Targets: targets, Loads: loads}
	if rng.Float64() < 0.2 {
		m.EqualSplitPercentiles = true
	}
	if rng.Float64() < 0.2 {
		m.TargetScale = 1
	}
	if rng.Float64() < 0.15 {
		m.NodeBudget = 1 + rng.Intn(4)
	}
	return m
}

// mustMatchSolutions asserts the two solve outcomes are bit-identical in
// everything the API promises: picks, costs, bounds and percentile
// assignment. Nodes is exempt (the fast solver prunes subtrees the
// reference walks) but must never exceed the reference's count.
func mustMatchSolutions(t *testing.T, tag string, want *Solution, wantErr error, got *Solution, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: reference %v, fast %v", tag, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text mismatch: reference %q, fast %q", tag, wantErr, gotErr)
		}
		return
	}
	if want.TotalCPUs != got.TotalCPUs {
		t.Fatalf("%s: TotalCPUs: reference %v, fast %v", tag, want.TotalCPUs, got.TotalCPUs)
	}
	if got.Nodes > want.Nodes {
		t.Fatalf("%s: fast solver visited more nodes (%d) than reference (%d)", tag, got.Nodes, want.Nodes)
	}
	if len(want.Choices) != len(got.Choices) {
		t.Fatalf("%s: choice count: reference %d, fast %d", tag, len(want.Choices), len(got.Choices))
	}
	for name, w := range want.Choices {
		g := got.Choices[name]
		if g == nil {
			t.Fatalf("%s: fast solution missing choice for %s", tag, name)
		}
		if w.PointIndex != g.PointIndex || w.CostCPUs != g.CostCPUs {
			t.Fatalf("%s: choice %s: reference (pt=%d cost=%v), fast (pt=%d cost=%v)",
				tag, name, w.PointIndex, w.CostCPUs, g.PointIndex, g.CostCPUs)
		}
		if !reflect.DeepEqual(w.LPR, g.LPR) {
			t.Fatalf("%s: choice %s LPR: reference %v, fast %v", tag, name, w.LPR, g.LPR)
		}
	}
	if !reflect.DeepEqual(want.BoundMs, got.BoundMs) {
		t.Fatalf("%s: BoundMs: reference %v, fast %v", tag, want.BoundMs, got.BoundMs)
	}
	if !reflect.DeepEqual(want.PercentileChoice, got.PercentileChoice) {
		t.Fatalf("%s: PercentileChoice: reference %v, fast %v", tag, want.PercentileChoice, got.PercentileChoice)
	}
}

// TestSolverMatchesReferenceProperty is the equivalence property test: over
// seeded random models (feasible, infeasible, equal-split, budget-capped),
// the fast solver's output is bit-identical to the retained reference.
func TestSolverMatchesReferenceProperty(t *testing.T) {
	feasible, infeasible, capped, equalSplit := 0, 0, 0, 0
	for seed := int64(0); seed < 60; seed++ {
		m := randomModel(rand.New(rand.NewSource(seed)))
		want, wantErr := m.solveReference()
		got, gotErr := m.Solve()
		mustMatchSolutions(t, fmt.Sprintf("seed %d", seed), want, wantErr, got, gotErr)
		switch {
		case wantErr != nil:
			infeasible++
		default:
			feasible++
		}
		if m.NodeBudget > 0 {
			capped++
		}
		if m.EqualSplitPercentiles {
			equalSplit++
		}
	}
	// The generator must actually cover the interesting regimes; if a tweak
	// collapses one of these counters the test has stopped testing it.
	if feasible < 10 || infeasible < 5 || capped < 3 || equalSplit < 3 {
		t.Fatalf("generator coverage too thin: feasible=%d infeasible=%d capped=%d equalSplit=%d",
			feasible, infeasible, capped, equalSplit)
	}
}

// TestSolverMatchesReferenceCapped pins the budget-capped case explicitly:
// with NodeBudget as small as a single leaf evaluation, both solvers must
// stop at the same incumbent because both count only non-dominated leaves.
func TestSolverMatchesReferenceCapped(t *testing.T) {
	for _, budget := range []int{1, 2, 3, 7} {
		for seed := int64(100); seed < 110; seed++ {
			m := randomModel(rand.New(rand.NewSource(seed)))
			m.NodeBudget = budget
			want, wantErr := m.solveReference()
			got, gotErr := m.Solve()
			mustMatchSolutions(t, fmt.Sprintf("budget %d seed %d", budget, seed), want, wantErr, got, gotErr)
		}
	}
}

// TestSolverNoCrossSolveLeak guards the arena reuse: solving model A then
// model B on one reused solver must give exactly the answer a fresh solver
// gives for B, for every ordered pair of a diverse model set. A stale-arena
// read would make results depend on which pooled solver a caller drew —
// nondeterminism that only shows up under concurrent pool traffic.
func TestSolverNoCrossSolveLeak(t *testing.T) {
	models := make([]*Model, 40)
	for i := range models {
		models[i] = randomModel(rand.New(rand.NewSource(int64(i * 7))))
	}
	withActive := func(m *Model) *Model {
		if active := m.activeTargets(); len(active) != len(m.Targets) {
			mm := *m
			mm.Targets = active
			return &mm
		}
		return m
	}
	type res struct {
		sol *Solution
		err error
	}
	fresh := make([]res, len(models))
	for i, m := range models {
		s := &solver{}
		sol, err := s.solve(withActive(m))
		fresh[i] = res{sol, err}
	}
	shared := &solver{}
	for i := range models {
		for j := range models {
			_, _ = shared.solve(withActive(models[i]))
			sol, err := shared.solve(withActive(models[j]))
			if (err == nil) != (fresh[j].err == nil) {
				t.Fatalf("pair (%d,%d): err %v vs fresh %v", i, j, err, fresh[j].err)
			}
			if err != nil {
				continue
			}
			sol.Nodes, fresh[j].sol.Nodes = 0, 0
			if !reflect.DeepEqual(sol, fresh[j].sol) {
				t.Fatalf("pair (%d,%d): cross-solve leak:\n got %+v\nwant %+v", i, j, sol, fresh[j].sol)
			}
		}
	}
}

// TestSolverCompileMatchesCompile pins the cached-percentile compile against
// the sample-recomputing one: identical option sets, costs and latency rows,
// bit for bit.
func TestSolverCompileMatchesCompile(t *testing.T) {
	for seed := int64(200); seed < 210; seed++ {
		m := randomModel(rand.New(rand.NewSource(seed)))
		if active := m.activeTargets(); len(active) != len(m.Targets) {
			m.Targets = active
		}
		svcNames, opts, _, _, err := m.compile()
		s := &solver{m: m}
		fastErr := s.compile()
		if (err == nil) != (fastErr == nil) {
			t.Fatalf("seed %d: compile error mismatch: %v vs %v", seed, err, fastErr)
		}
		if err != nil {
			if err.Error() != fastErr.Error() {
				t.Fatalf("seed %d: compile error text: %q vs %q", seed, err, fastErr)
			}
			continue
		}
		if !reflect.DeepEqual(svcNames, s.svcNames) {
			t.Fatalf("seed %d: services %v vs %v", seed, svcNames, s.svcNames)
		}
		for si := range opts {
			if len(opts[si]) != len(s.opts[si]) {
				t.Fatalf("seed %d: svc %s option count %d vs %d", seed, svcNames[si], len(opts[si]), len(s.opts[si]))
			}
			for oi := range opts[si] {
				w, g := opts[si][oi], s.opts[si][oi]
				if w.index != g.index || w.cost != g.cost {
					t.Fatalf("seed %d: svc %s option %d header mismatch", seed, svcNames[si], oi)
				}
				if !reflect.DeepEqual(w.lat, g.lat) {
					t.Fatalf("seed %d: svc %s option %d rows: %v vs %v", seed, svcNames[si], oi, w.lat, g.lat)
				}
			}
		}
	}
}

// TestDominancePruningEngages builds a model with a strictly dominated
// operating point and checks the fast solver actually skips it (fewer nodes
// than the reference) while returning the identical solution.
func TestDominancePruningEngages(t *testing.T) {
	m := twoServiceModel(150)
	// A third point for "a": same cost driver (LPR 50 → same replica count
	// as the 10ms point) but slower everywhere → dominated by... nothing,
	// cost ties are kept. Make it strictly more expensive AND slower: lower
	// LPR than the 10ms point with worse latency.
	pa := m.Profiles["a"]
	pa.Points = append(pa.Points, point(3, 25, 50, "req"))
	pa.SortPoints()
	want, wantErr := m.solveReference()
	got, gotErr := m.Solve()
	mustMatchSolutions(t, "dominated", want, wantErr, got, gotErr)
	if gotErr == nil && got.Nodes >= want.Nodes {
		t.Fatalf("dominance pruning did not engage: fast %d nodes, reference %d", got.Nodes, want.Nodes)
	}
}

// TestExactMIPMatchesFastSolverRandom extends the mipbridge cross-check to
// random small models: the generic branch-and-bound over the exact MIP (1)
// formulation agrees with the fast solver's objective on feasible models and
// on infeasibility.
func TestExactMIPMatchesFastSolverRandom(t *testing.T) {
	checked := 0
	for seed := int64(300); seed < 340 && checked < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		if len(m.Profiles) > 3 || m.EqualSplitPercentiles || m.NodeBudget > 0 {
			continue // keep the generic MIP tractable; budget/ablation are out of its scope
		}
		if active := m.activeTargets(); len(active) != len(m.Targets) {
			m.Targets = active
		}
		if len(m.Targets) == 0 {
			continue
		}
		sol, err := m.Solve()
		prob, _, mipErr := m.BuildExactMIP()
		if mipErr != nil {
			if err == nil {
				t.Fatalf("seed %d: MIP build failed (%v) but fast solver succeeded", seed, mipErr)
			}
			continue
		}
		got := SolveMIP(prob)
		if err != nil {
			if got.Status == Optimal {
				t.Fatalf("seed %d: fast solver infeasible (%v) but MIP optimal obj=%v", seed, err, got.Obj)
			}
			checked++
			continue
		}
		if got.Status != Optimal {
			t.Fatalf("seed %d: fast solver obj=%v but MIP status %v", seed, sol.TotalCPUs, got.Status)
		}
		if math.Abs(got.Obj-sol.TotalCPUs) > 1e-6 {
			t.Fatalf("seed %d: MIP obj %v != fast solver %v", seed, got.Obj, sol.TotalCPUs)
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("cross-checked only %d random models", checked)
	}
}
