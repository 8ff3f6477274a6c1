package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ursa/internal/stats"
)

// This file holds the optimised decision path: a reusable solver with
// precomputed state that Model.Solve runs on. It returns bit-identical
// results to the test oracle solveReference (reference_test.go: same picks,
// bounds, percentile assignment and errors — property-tested in
// solver_test.go); the speed comes from
//
//   - percentile rows read from the per-Profile cached tables (one sort per
//     point per class, ever) instead of one quickselect per option × target
//     × percentile per solve;
//   - per-service cost orders computed once per solve instead of re-sorted
//     inside every branch-and-bound node;
//   - per-option minimum latencies precomputed so the optimistic child bound
//     is O(1) per target instead of a scan over the percentile grid;
//   - dominance pruning: operating points that are at least as expensive and
//     at least as slow (on every target and percentile) as a strictly
//     cheaper point are dropped from the search before it starts;
//   - pooled DP arenas reused across percentile-assignment evaluations, so
//     steady-state re-solves allocate only the returned Solution.

// defaultLeafBudget caps the search on pathological models: at most this
// many non-dominated leaf feasibility evaluations before the incumbent (if
// any) is returned as-is.
const defaultLeafBudget = 5_000_000

// leafBudget resolves the model's search budget.
func (m *Model) leafBudget() int {
	if m.NodeBudget > 0 {
		return m.NodeBudget
	}
	return defaultLeafBudget
}

// costOrder returns the option indices of opts in ascending cost order,
// reusing buf when it has capacity. Both solvers obtain their iteration
// order from this one helper (the fast solver once per service per solve,
// the reference inside every node as it always did): sort.Slice is
// deterministic, so one shared implementation guarantees the two searches
// visit subtrees in exactly the same sequence — including ties, where the
// (unstable) sort's output is arbitrary but reproducible.
func costOrder(opts []option, buf []int) []int {
	order := buf[:0]
	for i := range opts {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool { return opts[order[a]].cost < opts[order[b]].cost })
	return order
}

// dominatedFlags marks options the search can skip: option A of a service
// is dominated when another option B of the same service has strictly lower
// cost and a latency contribution no larger than A's for every target and
// grid percentile. Any leaf using A is preceded (in cheapest-first order)
// by the corresponding leaf using B, which is feasible whenever A's is and
// strictly cheaper — so by the time A's subtree would be explored the
// incumbent is already below anything the subtree can offer, and skipping
// it cannot change the returned pick, bound or percentile assignment. Cost
// ties are never pruned: which of two equal-cost options wins depends on
// visit order, and pruning one could flip the reported pick.
func dominatedFlags(opts [][]option, nTgt int) [][]bool {
	out := make([][]bool, len(opts))
	for si := range opts {
		ops := opts[si]
		flags := make([]bool, len(ops))
		for a := range ops {
			for b := range ops {
				if ops[b].cost >= ops[a].cost {
					continue
				}
				dominates := true
				for t := 0; t < nTgt && dominates; t++ {
					ra, rb := ops[a].lat[t], ops[b].lat[t]
					if ra == nil {
						continue
					}
					for β := range ra {
						if rb[β] > ra[β] {
							dominates = false
							break
						}
					}
				}
				if dominates {
					flags[a] = true
					break
				}
			}
		}
		out[si] = flags
	}
	return out
}

// solver is the reusable optimised search. All slices are arenas that grow
// to the largest model seen and are reused across solves; a solver is not
// safe for concurrent use (Model.Solve hands instances out via a pool).
type solver struct {
	m        *Model
	nSvc     int
	nTgt     int
	svcNames []string
	terms    [][]term
	termsBuf []term
	budgets  []int
	targetMs []float64

	opts    [][]option
	optsBuf []option
	latBuf  [][]float64 // per-option lat tables, nTgt entries each
	rowBuf  []float64   // percentile rows, len(Percentiles) each

	orders    [][]int // per-service option positions, cheapest-first (costOrder)
	dominated [][]bool

	optMin      [][]float64 // optMin[si][oi*nTgt+t]: min over grid of opts[si][oi].lat[t]
	optMinBuf   []float64
	bestContrib []float64 // [t*nSvc+si], over the full (undominated) option set
	minCostFrom []float64

	// Search state.
	pos       []int // option position per service along the current path
	bestPos   []int
	haveBest  bool
	bestCost  float64
	latAt     []float64 // (nSvc+1) × nTgt: latSoFar per depth
	nodes     int
	leafEvals int
	budget    int
	capped    bool

	// Percentile-assignment DP arena.
	residuals []int
	dpLat     []float64
	dpChoice  []int8
	dpRows    [][]float64
}

var solverPool = sync.Pool{New: func() any { return &solver{} }}

// solve runs the optimised decision path for m, whose targets must already
// be filtered to active ones.
func (s *solver) solve(m *Model) (*Solution, error) {
	s.m = m
	if err := s.compile(); err != nil {
		return nil, err
	}
	s.precompute()
	s.search()
	// The nSvc == 0 guard covers a model whose every target was dropped for
	// carrying no load: the reference treats its empty pick as "nothing
	// found" and errors, and the fast path must agree.
	if !s.haveBest || s.nSvc == 0 {
		return nil, fmt.Errorf("core: no feasible LPR combination for the explored allocation space")
	}
	return s.materialise()
}

// growF/growI/growRows size arenas without reallocating in steady state.
func growF(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

func growI(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

// compile mirrors Model.compile — same validation, same option filtering,
// same term tables — but reads latency rows from the Profile percentile
// caches instead of re-selecting order statistics from raw samples, and
// builds everything into reused arenas.
func (s *solver) compile() error {
	m := s.m
	s.svcNames = s.svcNames[:0]
	seen := map[string]bool{}
	for _, tgt := range m.Targets {
		if len(tgt.Path) == 0 {
			return fmt.Errorf("core: target %s has an empty path", tgt.Name)
		}
		for _, v := range tgt.Path {
			if !seen[v.Service] {
				seen[v.Service] = true
				s.svcNames = append(s.svcNames, v.Service)
			}
		}
	}
	sort.Strings(s.svcNames)
	s.nSvc = len(s.svcNames)
	s.nTgt = len(m.Targets)

	if cap(s.terms) < s.nTgt {
		s.terms = make([][]term, s.nTgt)
	}
	s.terms = s.terms[:s.nTgt]
	s.budgets = growI(s.budgets, s.nTgt)
	s.targetMs = growF(s.targetMs, s.nTgt)
	s.termsBuf = s.termsBuf[:0]
	for t, tgt := range m.Targets {
		s.budgets[t] = residualUnits(tgt.Percentile)
		s.targetMs[t] = m.targetMs(t)
		start := len(s.termsBuf)
		for _, v := range tgt.Path {
			s.termsBuf = append(s.termsBuf, term{service: v.Service, class: v.Class, count: float64(v.Count)})
		}
		s.terms[t] = s.termsBuf[start:len(s.termsBuf):len(s.termsBuf)]
	}

	if cap(s.opts) < s.nSvc {
		s.opts = make([][]option, s.nSvc)
	}
	s.opts = s.opts[:s.nSvc]
	s.optsBuf = s.optsBuf[:0]
	s.latBuf = s.latBuf[:0]
	s.rowBuf = s.rowBuf[:0]
	nPerc := len(Percentiles)
	for si, name := range s.svcNames {
		p := m.Profiles[name]
		if p == nil || len(p.Points) == 0 {
			return fmt.Errorf("core: no exploration profile for service %q", name)
		}
		grids := p.pointGrids()
		start := len(s.optsBuf)
		for pi := range p.Points {
			pt := &p.Points[pi]
			cost, ok := m.optionCost(name, pt)
			if !ok {
				continue
			}
			latStart := len(s.latBuf)
			for t := 0; t < s.nTgt; t++ {
				s.latBuf = append(s.latBuf, nil)
			}
			lat := s.latBuf[latStart:len(s.latBuf):len(s.latBuf)]
			usable := true
			for t := range m.Targets {
				var mine *term
				for k := range s.terms[t] {
					if s.terms[t][k].service == name {
						mine = &s.terms[t][k]
						break
					}
				}
				if mine == nil {
					continue
				}
				if len(pt.Latency[mine.class]) == 0 {
					usable = false
					break
				}
				grid := grids[pi][mine.class]
				rowStart := len(s.rowBuf)
				for b := 0; b < nPerc; b++ {
					s.rowBuf = append(s.rowBuf, mine.count*grid[b])
				}
				lat[t] = s.rowBuf[rowStart:len(s.rowBuf):len(s.rowBuf)]
			}
			if usable {
				s.optsBuf = append(s.optsBuf, option{index: pi, cost: cost, lat: lat})
			}
		}
		s.opts[si] = s.optsBuf[start:len(s.optsBuf):len(s.optsBuf)]
		if len(s.opts[si]) == 0 {
			return fmt.Errorf("core: service %q has no usable LPR points for the current classes", name)
		}
	}
	return nil
}

// precompute builds the per-solve search tables: cost orders (once, not per
// node), dominance flags, per-option minimum latencies, the full-set
// best-contribution bound data and the cost suffix minima.
func (s *solver) precompute() {
	nSvc, nTgt := s.nSvc, s.nTgt

	if cap(s.orders) < nSvc {
		s.orders = make([][]int, nSvc)
	}
	s.orders = s.orders[:nSvc]
	for si := range s.opts {
		s.orders[si] = costOrder(s.opts[si], s.orders[si])
	}

	s.dominated = dominatedFlags(s.opts, nTgt)

	if cap(s.optMin) < nSvc {
		s.optMin = make([][]float64, nSvc)
	}
	s.optMin = s.optMin[:nSvc]
	s.optMinBuf = s.optMinBuf[:0]
	for si := range s.opts {
		start := len(s.optMinBuf)
		for oi := range s.opts[si] {
			op := &s.opts[si][oi]
			for t := 0; t < nTgt; t++ {
				best := math.Inf(1)
				if op.lat[t] != nil {
					for _, v := range op.lat[t] {
						if v < best {
							best = v
						}
					}
				}
				s.optMinBuf = append(s.optMinBuf, best)
			}
		}
		s.optMin[si] = s.optMinBuf[start:len(s.optMinBuf):len(s.optMinBuf)]
	}

	// bestContrib spans the full option set (dominated ones included): the
	// reference's optimistic bound uses every option, and sharing its exact
	// values keeps the two searches' prune decisions — and therefore their
	// leaf sequences under a binding budget — identical.
	s.bestContrib = growF(s.bestContrib, nTgt*nSvc)
	for t := 0; t < nTgt; t++ {
		for si := 0; si < nSvc; si++ {
			best := 0.0
			found := false
			for _, op := range s.opts[si] {
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
			s.bestContrib[t*nSvc+si] = best
		}
	}

	s.minCostFrom = growF(s.minCostFrom, nSvc+1)
	s.minCostFrom[nSvc] = 0
	for si := nSvc - 1; si >= 0; si-- {
		minCost := math.Inf(1)
		for _, op := range s.opts[si] {
			if op.cost < minCost {
				minCost = op.cost
			}
		}
		s.minCostFrom[si] = s.minCostFrom[si+1] + minCost
	}

	s.pos = growI(s.pos, nSvc)
	s.bestPos = growI(s.bestPos, nSvc)
	s.latAt = growF(s.latAt, (nSvc+1)*nTgt)
	for t := 0; t < nTgt; t++ {
		s.latAt[t] = 0
	}

	s.residuals = growI(s.residuals, len(Percentiles))
	for b, p := range Percentiles {
		s.residuals[b] = residualUnits(p)
	}
	maxTerms, maxBudget := 0, 0
	for t := 0; t < nTgt; t++ {
		if len(s.terms[t]) > maxTerms {
			maxTerms = len(s.terms[t])
		}
		if s.budgets[t] > maxBudget {
			maxBudget = s.budgets[t]
		}
	}
	dpCells := (maxTerms + 1) * (maxBudget + 1)
	s.dpLat = growF(s.dpLat, dpCells)
	if cap(s.dpChoice) < dpCells {
		s.dpChoice = make([]int8, dpCells)
	}
	s.dpChoice = s.dpChoice[:dpCells]
	if cap(s.dpRows) < maxTerms {
		s.dpRows = make([][]float64, maxTerms)
	}
	s.dpRows = s.dpRows[:maxTerms]
}

// search runs the dominance-pruned branch-and-bound.
func (s *solver) search() {
	s.bestCost = math.Inf(1)
	s.haveBest = false
	s.nodes = 0
	s.leafEvals = 0
	s.budget = s.m.leafBudget()
	s.capped = false
	s.rec(0, 0)
}

func (s *solver) rec(si int, costSoFar float64) {
	s.nodes++
	if s.capped {
		return
	}
	if costSoFar+s.minCostFrom[si] >= s.bestCost {
		return
	}
	nSvc, nTgt := s.nSvc, s.nTgt
	lat := s.latAt[si*nTgt : (si+1)*nTgt]
	if si == nSvc {
		// Every pick on this path is non-dominated, so each leaf counts
		// against the shared search budget.
		s.leafEvals++
		if s.leafEvals > s.budget {
			s.capped = true
			return
		}
		for t := 0; t < nTgt; t++ {
			if _, ok := s.assign(t, false); !ok {
				return
			}
		}
		s.bestCost = costSoFar
		s.haveBest = true
		copy(s.bestPos, s.pos)
		return
	}
	// Optimistic per-target feasibility using best-case remaining, summed in
	// the same order as the reference.
	for t := 0; t < nTgt; t++ {
		optimistic := lat[t]
		row := s.bestContrib[t*nSvc : (t+1)*nSvc]
		for sj := si; sj < nSvc; sj++ {
			optimistic += row[sj]
		}
		if optimistic > s.targetMs[t] {
			return
		}
	}
	next := s.latAt[(si+1)*nTgt : (si+2)*nTgt]
	optMin := s.optMin[si]
	for _, oi := range s.orders[si] {
		if s.dominated[si][oi] {
			continue
		}
		op := &s.opts[si][oi]
		base := oi * nTgt
		for t := 0; t < nTgt; t++ {
			if op.lat[t] != nil {
				next[t] = lat[t] + optMin[base+t]
			} else {
				next[t] = lat[t]
			}
		}
		s.pos[si] = oi
		s.rec(si+1, costSoFar+op.cost)
	}
}

// assign solves the percentile-budget DP for target t against the current
// path picks (s.pos), reusing the solver's arena. With recover it also
// reconstructs the chosen percentiles (allocating the returned slice); the
// search's feasibility checks pass recover=false and allocate nothing. The
// arithmetic — iteration order, comparisons, interpolation inputs — matches
// the oracle's Model.assignPercentiles (reference_test.go) cell for cell.
func (s *solver) assign(t int, recover bool) (assignment, bool) {
	tms := s.terms[t]
	budget := s.budgets[t]
	pos := s.pos
	if recover {
		pos = s.bestPos
	}
	svcAt := func(name string) int {
		lo, hi := 0, s.nSvc
		for lo < hi {
			mid := (lo + hi) / 2
			if s.svcNames[mid] < name {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	rows := s.dpRows[:len(tms)]
	for k := range tms {
		si := svcAt(tms[k].service)
		rows[k] = s.opts[si][pos[si]].lat[t]
	}

	if s.m.EqualSplitPercentiles {
		β := equalSplitIndex(budget, len(tms))
		if β == -1 {
			return assignment{}, false
		}
		bound := 0.0
		for k := range tms {
			bound += rows[k][β]
		}
		if bound > s.targetMs[t] {
			return assignment{}, false
		}
		if !recover {
			return assignment{bound: bound}, true
		}
		percs := make([]float64, len(tms))
		for k := range percs {
			percs[k] = Percentiles[β]
		}
		return assignment{percentiles: percs, bound: bound}, true
	}

	const inf = math.MaxFloat64 / 4
	stride := budget + 1
	cells := (len(tms) + 1) * stride
	dpLat := s.dpLat[:cells]
	dpChoice := s.dpChoice[:cells]
	for i := range dpLat {
		dpLat[i] = inf
		dpChoice[i] = -1
	}
	dpLat[budget] = 0
	for k := 0; k < len(tms); k++ {
		krow := dpLat[k*stride : (k+1)*stride]
		nrow := dpLat[(k+1)*stride : (k+2)*stride]
		ncho := dpChoice[(k+1)*stride : (k+2)*stride]
		row := rows[k]
		for b := 0; b <= budget; b++ {
			cur := krow[b]
			if cur >= inf {
				continue
			}
			for β, r := range s.residuals {
				if r > b {
					continue
				}
				nb := b - r
				nl := cur + row[β]
				if nl < nrow[nb] {
					nrow[nb] = nl
					ncho[nb] = int8(β)
				}
			}
		}
	}
	lastRow := dpLat[len(tms)*stride : (len(tms)+1)*stride]
	bestB, bestLat := -1, inf
	for b := 0; b <= budget; b++ {
		if lastRow[b] < bestLat {
			bestLat = lastRow[b]
			bestB = b
		}
	}
	if bestB == -1 || bestLat > s.targetMs[t] {
		return assignment{}, false
	}
	if !recover {
		return assignment{bound: bestLat}, true
	}
	percs := make([]float64, len(tms))
	b := bestB
	for k := len(tms); k >= 1; k-- {
		β := dpChoice[k*stride+b]
		percs[k-1] = Percentiles[β]
		b += s.residuals[β]
	}
	return assignment{percentiles: percs, bound: bestLat}, true
}

// materialise builds the Solution for the winning pick. Option lookups are
// direct (the search tracks option positions), fixing the old O(options)
// cost re-scan per service.
func (s *solver) materialise() (*Solution, error) {
	m := s.m
	sol := &Solution{
		Choices:          make(map[string]*Choice, s.nSvc),
		PercentileChoice: make(map[string][]float64, s.nTgt),
		BoundMs:          make(map[string]float64, s.nTgt),
		TotalCPUs:        s.bestCost,
		Nodes:            s.nodes,
	}
	for si, name := range s.svcNames {
		op := &s.opts[si][s.bestPos[si]]
		pt := &m.Profiles[name].Points[op.index]
		sol.Choices[name] = &Choice{
			Service:     name,
			PointIndex:  op.index,
			LPR:         pt.LPR,
			RateSamples: pt.RateSamples,
			CostCPUs:    op.cost,
		}
	}
	for t, tgt := range m.Targets {
		assign, ok := s.assign(t, true)
		if !ok {
			return nil, fmt.Errorf("core: internal: winning pick infeasible for %s", tgt.Name)
		}
		sol.PercentileChoice[tgt.Name] = assign.percentiles
		sol.BoundMs[tgt.Name] = assign.bound
	}
	return sol, nil
}

// estimateArena pools the DP state of EstimateBound: the Fig. 9/10
// estimator runs once per class per measurement window, and fig9-style
// sweeps call it thousands of times.
type estimateArena struct {
	rows    [][]float64
	rowBuf  []float64
	dp      []float64
	resid   []int
	residOK bool
}

var estimatePool = sync.Pool{New: func() any { return &estimateArena{} }}

// estimateBound is the arena-backed implementation behind EstimateBound.
func (a *estimateArena) estimateBound(tgt ClassTarget, dists map[string][]float64) (float64, bool) {
	budget := residualUnits(tgt.Percentile)
	nPerc := len(Percentiles)
	if !a.residOK {
		a.resid = growI(a.resid, nPerc)
		for b, p := range Percentiles {
			a.resid[b] = residualUnits(p)
		}
		a.residOK = true
	}
	if cap(a.rows) < len(tgt.Path) {
		a.rows = make([][]float64, len(tgt.Path))
	}
	a.rows = a.rows[:len(tgt.Path)]
	a.rowBuf = growF(a.rowBuf, len(tgt.Path)*nPerc)
	for k, v := range tgt.Path {
		samples := dists[v.Service+"/"+v.Class]
		if len(samples) == 0 {
			return 0, false
		}
		row := a.rowBuf[k*nPerc : (k+1)*nPerc]
		// One sort per sample set; count-scaled grid reads match the old
		// per-percentile quickselect bit for bit.
		stats.GridPercentiles(samples, Percentiles, row)
		for b := range row {
			row[b] = float64(v.Count) * row[b]
		}
		a.rows[k] = row
	}
	const inf = math.MaxFloat64 / 4
	stride := budget + 1
	a.dp = growF(a.dp, (len(a.rows)+1)*stride)
	dp := a.dp
	for i := range dp {
		dp[i] = inf
	}
	dp[budget] = 0
	for k := 0; k < len(a.rows); k++ {
		krow := dp[k*stride : (k+1)*stride]
		nrow := dp[(k+1)*stride : (k+2)*stride]
		row := a.rows[k]
		for b := 0; b <= budget; b++ {
			cur := krow[b]
			if cur >= inf {
				continue
			}
			for β, r := range a.resid {
				if r > b {
					continue
				}
				if v := cur + row[β]; v < nrow[b-r] {
					nrow[b-r] = v
				}
			}
		}
	}
	last := dp[len(a.rows)*stride : (len(a.rows)+1)*stride]
	best := inf
	for b := 0; b <= budget; b++ {
		if last[b] < best {
			best = last[b]
		}
	}
	if best >= inf {
		return 0, false
	}
	return best, true
}
