package core

import (
	"fmt"
	"sort"

	"ursa/internal/stats"
)

// ClassTarget is one end-to-end SLA constraint: the x-th percentile latency
// of the class must stay below TargetMs.
type ClassTarget struct {
	Name       string
	Percentile float64
	TargetMs   float64
	Path       []PathVisit
}

// Model is the §IV performance model: per-service exploration profiles plus
// the end-to-end SLA targets and the current per-service load, from which
// the optimization engine derives per-service LPR thresholds.
type Model struct {
	Profiles map[string]*Profile
	Targets  []ClassTarget
	// Loads maps service → class → current arrival rate (requests/second).
	Loads map[string]map[string]float64
	// TargetScale tightens every SLA target by this factor during solving
	// (certified bound ≤ TargetScale × T). Ursa "prioritizes maintaining
	// SLAs and makes conservative decisions" (§VII-E); the default 0.92
	// absorbs sampling noise in the explored percentile estimates. 1
	// disables the margin; the zero value selects the default.
	TargetScale float64
	// EqualSplitPercentiles is an ablation switch: instead of optimising
	// the Theorem 1 percentile assignment, every service on a class's path
	// is forced to the same percentile — the smallest grid value whose
	// residual fits an equal split of the budget. Quantifies how much the
	// MIP's percentile freedom saves.
	EqualSplitPercentiles bool
	// NodeBudget caps the branch-and-bound search as a number of
	// non-dominated leaf feasibility evaluations; the incumbent (if any)
	// stands when the cap is hit. 0 selects the 5M default. Leaves — not
	// raw visited nodes — are counted so that the fast solver and the
	// reference test oracle (which walks subtrees the fast solver prunes)
	// stop at exactly the same point and stay bit-identical when capped.
	NodeBudget int
}

// targetMs is the effective (safety-scaled) latency target of target t.
func (m *Model) targetMs(t int) float64 {
	s := m.TargetScale
	if s <= 0 {
		s = 0.92
	}
	return m.Targets[t].TargetMs * s
}

// Choice is the selected LPR operating point for one service.
type Choice struct {
	Service    string
	PointIndex int
	// LPR is the per-class load-per-replica scaling threshold a_i^j.
	LPR map[string]float64
	// RateSamples back the controller's t-test threshold comparisons.
	RateSamples map[string][]float64
	// CostCPUs is the projected CPU consumption at the current load.
	CostCPUs float64
}

// Solution is the optimization output: one LPR threshold per service plus
// the percentile decomposition that certifies each SLA.
type Solution struct {
	Choices map[string]*Choice
	// PercentileChoice maps class → path index → chosen percentile.
	PercentileChoice map[string][]float64
	// BoundMs maps class → the certified latency upper bound Σ t_i(x_i).
	BoundMs map[string]float64
	// TotalCPUs is the projected total CPU consumption.
	TotalCPUs float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// sortedChoiceNames returns the solution's service names in ascending
// order. Control-loop code that acts per service (replica scaling, anomaly
// recalculation) iterates this instead of ranging over the Choices map:
// those actions interact — through cluster placement and mid-loop solution
// swaps — so map iteration order would make runs nondeterministic.
func sortedChoiceNames(sol *Solution) []string {
	names := make([]string, 0, len(sol.Choices))
	for name := range sol.Choices {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// term is one additive latency contribution to a class constraint.
type term struct {
	service string
	class   string // effective class at the service
	count   float64
}

// option is one candidate LPR point of a service, with its projected cost.
type option struct {
	index int
	cost  float64
	// lat[t][β]: latency contribution of this option to target t's term for
	// this service at percentile index β (already scaled by visit count),
	// or nil when the service is not on target t's path.
	lat [][]float64
}

// Solve picks the cheapest per-service LPR thresholds whose Theorem 1
// decomposition satisfies every SLA target, by branch-and-bound with an
// exact percentile-assignment DP at the leaves. Targets whose class carries
// no load (declared but currently unused request classes) are dropped — they
// consume no resources and have no distributions to constrain. It returns an
// error when no explored combination is feasible.
//
// The search runs on a pooled solver (solver.go) with cached percentile
// tables, precomputed cost orders and dominance pruning; it returns the same
// picks, bounds and percentile assignment as the straightforward
// branch-and-bound it replaced (kept as the test oracle in
// reference_test.go), bit for bit — only Solution.Nodes differs, since
// pruned subtrees are never visited.
func (m *Model) Solve() (*Solution, error) {
	if active := m.activeTargets(); len(active) != len(m.Targets) {
		mm := *m
		mm.Targets = active
		return mm.Solve()
	}
	s := solverPool.Get().(*solver)
	sol, err := s.solve(m)
	s.m = nil
	solverPool.Put(s)
	return sol, err
}

// activeTargets filters out targets whose class sees no load anywhere on
// its path.
func (m *Model) activeTargets() []ClassTarget {
	var out []ClassTarget
	for _, tgt := range m.Targets {
		load := 0.0
		for _, v := range tgt.Path {
			load += m.Loads[v.Service][v.Class]
		}
		if load > 0 {
			out = append(out, tgt)
		}
	}
	return out
}

// compile validates the model and builds the option/term tables.
func (m *Model) compile() (svcNames []string, opts [][]option, terms [][]term, budgets []int, err error) {
	seen := map[string]bool{}
	for _, tgt := range m.Targets {
		if len(tgt.Path) == 0 {
			return nil, nil, nil, nil, fmt.Errorf("core: target %s has an empty path", tgt.Name)
		}
		for _, v := range tgt.Path {
			if !seen[v.Service] {
				seen[v.Service] = true
				svcNames = append(svcNames, v.Service)
			}
		}
	}
	sort.Strings(svcNames)

	terms = make([][]term, len(m.Targets))
	budgets = make([]int, len(m.Targets))
	for t, tgt := range m.Targets {
		budgets[t] = residualUnits(tgt.Percentile)
		for _, v := range tgt.Path {
			terms[t] = append(terms[t], term{service: v.Service, class: v.Class, count: float64(v.Count)})
		}
	}

	opts = make([][]option, len(svcNames))
	for si, name := range svcNames {
		p := m.Profiles[name]
		if p == nil || len(p.Points) == 0 {
			return nil, nil, nil, nil, fmt.Errorf("core: no exploration profile for service %q", name)
		}
		for pi := range p.Points {
			pt := &p.Points[pi]
			cost, ok := m.optionCost(name, pt)
			if !ok {
				continue
			}
			op := option{index: pi, cost: cost, lat: make([][]float64, len(m.Targets))}
			usable := true
			for t := range m.Targets {
				var mine *term
				for k := range terms[t] {
					if terms[t][k].service == name {
						mine = &terms[t][k]
						break
					}
				}
				if mine == nil {
					continue
				}
				samples := pt.Latency[mine.class]
				if len(samples) == 0 {
					usable = false
					break
				}
				row := make([]float64, len(Percentiles))
				for b, pp := range Percentiles {
					row[b] = mine.count * stats.Percentile(samples, pp)
				}
				op.lat[t] = row
			}
			if usable {
				opts[si] = append(opts[si], op)
			}
		}
		if len(opts[si]) == 0 {
			return nil, nil, nil, nil, fmt.Errorf("core: service %q has no usable LPR points for the current classes", name)
		}
	}
	return svcNames, opts, terms, budgets, nil
}

// optionCost projects the CPU consumption of running service at the point's
// LPR thresholds under the model's current loads (Equation 3).
func (m *Model) optionCost(service string, pt *LPRPoint) (float64, bool) {
	p := m.Profiles[service]
	loads := m.Loads[service]
	maxReplicas := 0.0
	for class, a := range loads {
		if a <= 0 {
			continue
		}
		thr, ok := pt.LPR[class]
		if !ok || thr <= 0 {
			return 0, false // point never observed this class
		}
		if r := a / thr; r > maxReplicas {
			maxReplicas = r
		}
	}
	if maxReplicas == 0 {
		maxReplicas = 1
	}
	return maxReplicas * p.CPUsPerReplica, true
}

type assignment struct {
	percentiles []float64
	bound       float64
}

// equalSplitIndex returns the grid index of the smallest percentile whose
// residual fits budget/n (the naive equal-split decomposition), or -1.
func equalSplitIndex(budget, n int) int {
	if n <= 0 {
		return -1
	}
	share := budget / n
	for β := range Percentiles {
		if residualUnits(Percentiles[β]) <= share {
			return β
		}
	}
	return -1
}

// EstimateBound computes, for one class, the tightest Theorem 1 latency
// bound from per-(service,class) latency samples of a single measurement
// window — the estimator behind Fig. 9/10. dists maps "service/class" keys
// to window samples. Each sample set is sorted once and all grid percentiles
// read from the sorted slice; the DP state lives in a pooled arena, so
// fig9-style sweeps (thousands of calls) allocate nothing in steady state.
func EstimateBound(tgt ClassTarget, dists map[string][]float64) (float64, bool) {
	a := estimatePool.Get().(*estimateArena)
	bound, ok := a.estimateBound(tgt, dists)
	estimatePool.Put(a)
	return bound, ok
}
