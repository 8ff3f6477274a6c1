package core

import (
	"fmt"
	"math"
)

// solveReference is the test oracle for the decision path: the
// straightforward branch-and-bound this package shipped before the fast
// solver existed. It recomputes percentile rows from raw samples on
// every call (via compile), re-sorts the option order inside every node and
// allocates fresh DP tables per leaf — deliberately: it is the simple,
// obviously-correct ground truth that the optimised solver is property-
// tested against (same picks, bounds and percentile assignment, bit for
// bit), and the honest pre-optimisation baseline for BenchmarkSolve.
//
// The only structural change from the historical code is the search budget:
// both solvers count feasibility evaluations of non-dominated leaves (see
// leafBudget), so a capped search stops at the same incumbent in both — a
// raw visited-node cap could never match, because the fast solver skips
// subtrees this walk still visits.
func (m *Model) solveReference() (*Solution, error) {
	if active := m.activeTargets(); len(active) != len(m.Targets) {
		mm := *m
		mm.Targets = active
		return mm.solveReference()
	}
	svcNames, opts, terms, budgets, err := m.compile()
	if err != nil {
		return nil, err
	}
	nSvc := len(svcNames)
	nTgt := len(m.Targets)

	// Per-target quick infeasibility data: best possible contribution per
	// service (over all options and percentiles).
	bestContrib := make([][]float64, nTgt) // [target][svcIdx]
	for t := range m.Targets {
		bestContrib[t] = make([]float64, nSvc)
		for si := range svcNames {
			best := 0.0
			found := false
			for _, op := range opts[si] {
				if op.lat[t] == nil {
					continue
				}
				for _, v := range op.lat[t] {
					if !found || v < best {
						best = v
						found = true
					}
				}
			}
			bestContrib[t][si] = best
		}
	}
	minCostFrom := make([]float64, nSvc+1)
	for si := nSvc - 1; si >= 0; si-- {
		minCost := math.Inf(1)
		for _, op := range opts[si] {
			if op.cost < minCost {
				minCost = op.cost
			}
		}
		minCostFrom[si] = minCostFrom[si+1] + minCost
	}
	dominated := dominatedFlags(opts, nTgt)

	bestCost := math.Inf(1)
	var bestPick []int
	pick := make([]int, nSvc)
	pickPos := make([]int, nSvc) // option position per service (for dominance lookups)
	nodes := 0
	leafEvals := 0
	budget := m.leafBudget()
	capped := false

	var rec func(si int, costSoFar float64, latSoFar []float64)
	rec = func(si int, costSoFar float64, latSoFar []float64) {
		nodes++
		if capped {
			return // leaf budget exhausted; incumbent (if any) stands
		}
		if costSoFar+minCostFrom[si] >= bestCost {
			return
		}
		if si == nSvc {
			clean := true
			for sj := 0; sj < nSvc; sj++ {
				if dominated[sj][pickPos[sj]] {
					clean = false
					break
				}
			}
			if clean {
				leafEvals++
				if leafEvals > budget {
					capped = true
					return
				}
			}
			// Exact feasibility via the percentile-budget DP per target.
			for t := range m.Targets {
				if _, ok := m.assignPercentiles(t, terms[t], opts, pick, svcNames, budgets[t]); !ok {
					return
				}
			}
			bestCost = costSoFar
			bestPick = append(bestPick[:0], pick...)
			return
		}
		// Optimistic per-target feasibility using best-case remaining.
		for t := range m.Targets {
			optimistic := latSoFar[t]
			for sj := si; sj < nSvc; sj++ {
				optimistic += bestContrib[t][sj]
			}
			if optimistic > m.targetMs(t) {
				return
			}
		}
		// Try options cheapest-first so the first feasible leaf is a good
		// incumbent.
		order := costOrder(opts[si], nil)
		next := make([]float64, nTgt)
		for _, oi := range order {
			op := opts[si][oi]
			for t := 0; t < nTgt; t++ {
				next[t] = latSoFar[t]
				if op.lat[t] != nil {
					// Best-case percentile for the bound (DP enforces the
					// real budget at the leaf).
					best := math.Inf(1)
					for _, v := range op.lat[t] {
						if v < best {
							best = v
						}
					}
					next[t] += best
				}
			}
			pick[si] = op.index
			pickPos[si] = oi
			rec(si+1, costSoFar+op.cost, next)
		}
	}
	rec(0, 0, make([]float64, nTgt))

	if bestPick == nil {
		return nil, fmt.Errorf("core: no feasible LPR combination for the explored allocation space")
	}

	sol := &Solution{
		Choices:          map[string]*Choice{},
		PercentileChoice: map[string][]float64{},
		BoundMs:          map[string]float64{},
		TotalCPUs:        bestCost,
		Nodes:            nodes,
	}
	for si, name := range svcNames {
		p := m.Profiles[name]
		pt := &p.Points[bestPick[si]]
		var cost float64
		for _, op := range opts[si] {
			if op.index == bestPick[si] {
				cost = op.cost
			}
		}
		sol.Choices[name] = &Choice{
			Service:     name,
			PointIndex:  bestPick[si],
			LPR:         pt.LPR,
			RateSamples: pt.RateSamples,
			CostCPUs:    cost,
		}
	}
	for t, tgt := range m.Targets {
		assign, ok := m.assignPercentiles(t, terms[t], opts, bestPick, svcNames, budgets[t])
		if !ok {
			return nil, fmt.Errorf("core: internal: winning pick infeasible for %s", tgt.Name)
		}
		sol.PercentileChoice[tgt.Name] = assign.percentiles
		sol.BoundMs[tgt.Name] = assign.bound
	}
	return sol, nil
}

// assignPercentiles solves, for one target, the percentile-budget DP: pick a
// percentile per path term minimizing the summed latency bound subject to
// Σ residuals ≤ budget; feasible iff the minimum bound ≤ TargetMs. With
// EqualSplitPercentiles the assignment is fixed to the equal-split
// percentile instead (ablation).
func (m *Model) assignPercentiles(t int, tms []term, opts [][]option, pick []int, svcNames []string, budget int) (assignment, bool) {
	if m.EqualSplitPercentiles {
		return m.assignEqualSplit(t, tms, opts, pick, svcNames, budget)
	}
	type cell struct {
		lat    float64
		choice int8
	}
	residuals := make([]int, len(Percentiles))
	for b, p := range Percentiles {
		residuals[b] = residualUnits(p)
	}
	svcIdx := map[string]int{}
	for i, n := range svcNames {
		svcIdx[n] = i
	}

	// rows[k]: latency contribution of term k per percentile index.
	rows := make([][]float64, len(tms))
	for k, tm := range tms {
		si := svcIdx[tm.service]
		for _, op := range opts[si] {
			if op.index == pick[si] {
				rows[k] = op.lat[t]
				break
			}
		}
		if rows[k] == nil {
			return assignment{}, false
		}
	}

	const inf = math.MaxFloat64 / 4
	dp := make([][]cell, len(tms)+1)
	for k := range dp {
		dp[k] = make([]cell, budget+1)
		for b := range dp[k] {
			dp[k][b] = cell{lat: inf, choice: -1}
		}
	}
	dp[0][budget].lat = 0
	for k := 0; k < len(tms); k++ {
		for b := 0; b <= budget; b++ {
			if dp[k][b].lat >= inf {
				continue
			}
			for β, r := range residuals {
				if r > b {
					continue
				}
				nb := b - r
				nl := dp[k][b].lat + rows[k][β]
				if nl < dp[k+1][nb].lat {
					dp[k+1][nb] = cell{lat: nl, choice: int8(β)}
				}
			}
		}
	}
	bestB, bestLat := -1, inf
	for b := 0; b <= budget; b++ {
		if dp[len(tms)][b].lat < bestLat {
			bestLat = dp[len(tms)][b].lat
			bestB = b
		}
	}
	if bestB == -1 || bestLat > m.targetMs(t) {
		return assignment{}, false
	}
	// Recover choices.
	percs := make([]float64, len(tms))
	b := bestB
	for k := len(tms); k >= 1; k-- {
		β := dp[k][b].choice
		percs[k-1] = Percentiles[β]
		b += residuals[β]
	}
	return assignment{percentiles: percs, bound: bestLat}, true
}

// assignEqualSplit is the ablation percentile policy: every term gets the
// same percentile (equal residual split).
func (m *Model) assignEqualSplit(t int, tms []term, opts [][]option, pick []int, svcNames []string, budget int) (assignment, bool) {
	β := equalSplitIndex(budget, len(tms))
	if β == -1 {
		return assignment{}, false
	}
	svcIdx := map[string]int{}
	for i, n := range svcNames {
		svcIdx[n] = i
	}
	bound := 0.0
	percs := make([]float64, len(tms))
	for k, tm := range tms {
		si := svcIdx[tm.service]
		var row []float64
		for _, op := range opts[si] {
			if op.index == pick[si] {
				row = op.lat[t]
				break
			}
		}
		if row == nil {
			return assignment{}, false
		}
		bound += row[β]
		percs[k] = Percentiles[β]
	}
	if bound > m.targetMs(t) {
		return assignment{}, false
	}
	return assignment{percentiles: percs, bound: bound}, true
}
