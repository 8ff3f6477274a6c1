package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/sim"
	"ursa/internal/spec"
	"ursa/internal/workload"
)

// Fig. S1 (beyond the paper) is the fleet-scaling curve of ROADMAP item 1:
// how the control plane behaves as the cluster grows from the paper's 8-node
// testbed to 1024 nodes and from 1 tenant application to 32 behind one
// shared arbiter. Two sweeps share one generated tenant fleet: nodes at a
// fixed tenant count, and tenants at a fixed node count. Each cell deploys
// the fleet through core.Arbiter (admission → per-tenant managers →
// steady-state refresh) and measures decision latency, fast-path share,
// mean SLA violation rate and admission outcomes. Simulated metrics are
// deterministic per (seed, scale); decision_ms is wall-clock, like Table
// VI's. Placement cost per node count is BenchmarkPlace's job
// (internal/cluster).

// ScalingParams sizes the Fig. S1 grid.
type ScalingParams struct {
	// Nodes is the cluster-size sweep (default 8..1024 doubling), run at
	// FixedTenants tenants.
	Nodes []int
	// Tenants is the tenant-count sweep (default 1..32 doubling), run at
	// FixedNodes nodes.
	Tenants []int
	// FixedNodes is the cluster size of the tenant sweep (default 256).
	FixedNodes int
	// FixedTenants is the tenant count of the node sweep (default 8).
	FixedTenants int
}

func (p *ScalingParams) defaults() {
	if p.Nodes == nil {
		p.Nodes = []int{8, 16, 32, 64, 128, 256, 512, 1024}
	}
	if p.Tenants == nil {
		p.Tenants = []int{1, 2, 4, 8, 16, 32}
	}
	if p.FixedNodes <= 0 {
		p.FixedNodes = 256
	}
	if p.FixedTenants <= 0 {
		p.FixedTenants = 8
	}
}

// ScalingCell is one (nodes, tenants) fleet deployment outcome.
type ScalingCell struct {
	Nodes   int `json:"nodes"`
	Tenants int `json:"tenants"`
	// Admitted/Rejected split the tenant fleet by admission outcome
	// (rejections include infeasible generated SLAs, not just capacity).
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	// DecisionMs is the mean wall-clock control-plane decision latency
	// across the fleet (model solves + controller ticks).
	DecisionMs float64 `json:"decision_ms"`
	// FastShare is the fraction of model solves served by the incremental
	// re-solve fast path.
	FastShare float64 `json:"fast_share"`
	// ViolationRate is the mean per-tenant SLA violation fraction.
	ViolationRate float64 `json:"violation_rate"`
	// Unschedulable counts replica placements that failed for capacity.
	Unschedulable int `json:"unschedulable"`
}

// ScalingResult is the full Fig. S1 output, JSON-serializable for
// BENCH_placement.json.
type ScalingResult struct {
	Seed         int64         `json:"seed"`
	Scale        float64       `json:"scale"`
	FixedNodes   int           `json:"fixed_nodes"`
	FixedTenants int           `json:"fixed_tenants"`
	NodeSweep    []ScalingCell `json:"node_sweep"`
	TenantSweep  []ScalingCell `json:"tenant_sweep"`
}

// GenerateFleetCase builds tenant i of the experiment fleet for the given
// master seed, as an AppCase ready for the harness. Tenant i is independent
// of fleet size, so every cell of both sweeps shares exploration output for
// its common tenants via the profile cache.
func GenerateFleetCase(seed int64, i int) (AppCase, error) {
	f, err := spec.FleetMember(spec.FleetParams{Seed: seed}, i)
	if err != nil {
		return AppCase{}, err
	}
	c, err := spec.Build(f)
	if err != nil {
		return AppCase{}, err
	}
	return AppCase{Name: f.App, Spec: c.Spec, Mix: c.Mix, TotalRPS: c.Rate}, nil
}

// runScalingCell deploys a tenant fleet on a synthetic cluster behind one
// arbiter and drives it under each tenant's nominal load.
func runScalingCell(opts Options, nodes, tenants int, dur sim.Time) ScalingCell {
	cell := ScalingCell{Nodes: nodes, Tenants: tenants}

	eng := sim.NewEngine(opts.Seed + 2000)
	cl := cluster.Synthetic(cluster.WorstFit, nodes, opts.Seed)
	arb := core.NewArbiter(eng, cl)

	// Admit the fleet in tenant order. A tenant can fail admission for
	// capacity (ErrAdmission), an infeasible generated SLA (solve error), or
	// a failed exploration — all count as rejected, and the fleet runs on.
	admit := func(i int) (*core.Tenant, error) {
		c, err := GenerateFleetCase(opts.Seed, i)
		if err != nil {
			return nil, err
		}
		_, profiles, _, err := opts.ursaProfiles(c)
		if err != nil {
			return nil, err
		}
		return arb.Admit(core.TenantSpec{
			Name:     c.Name,
			Spec:     c.Spec,
			Profiles: profiles,
			Mix:      c.Mix,
			TotalRPS: c.TotalRPS,
		})
	}
	admitted := make([]*core.Tenant, 0, tenants)
	for i := 0; i < tenants; i++ {
		ten, err := admit(i)
		if err != nil {
			opts.logf("figs1: nodes=%d tenants=%d: reject: %v", nodes, tenants, err)
			cell.Rejected++
			continue
		}
		admitted = append(admitted, ten)
		workload.New(eng, ten.App, workload.Constant{Value: ten.TotalRPS}, ten.Mix).Start()
	}
	cell.Admitted = len(admitted)

	warm := 2 * sim.Minute
	if len(admitted) > 0 {
		arb.StartRefresh(0)
		eng.RunUntil(warm + dur)
		viol := 0.0
		for _, ten := range admitted {
			_, v := measureSLA(ten.App, warm, warm+dur)
			viol += v
		}
		cell.ViolationRate = viol / float64(len(admitted))
		cell.DecisionMs = arb.AvgDecisionMillis()
		cell.FastShare = arb.FastShare()
		cell.Unschedulable = arb.UnschedulableEvents()
		arb.Stop()
	}
	return cell
}

// RunScaling executes the Fig. S1 grid: the node sweep at FixedTenants and
// the tenant sweep at FixedNodes. Cells fan out across the worker pool and
// merge in canonical order.
func RunScaling(opts Options, params ScalingParams) ScalingResult {
	opts.defaults()
	params.defaults()
	res := ScalingResult{
		Seed:         opts.Seed,
		Scale:        opts.Scale,
		FixedNodes:   params.FixedNodes,
		FixedTenants: params.FixedTenants,
	}

	dur := opts.scaleTime(10*sim.Minute, 4*sim.Minute)
	type job struct{ nodes, tenants int }
	var jobs []job
	for _, n := range params.Nodes {
		jobs = append(jobs, job{n, params.FixedTenants})
	}
	for _, tn := range params.Tenants {
		jobs = append(jobs, job{params.FixedNodes, tn})
	}
	cells := make([]ScalingCell, len(jobs))
	opts.forEach(len(jobs), func(i int) {
		opts.logf("figs1: nodes=%d tenants=%d", jobs[i].nodes, jobs[i].tenants)
		cells[i] = runScalingCell(opts, jobs[i].nodes, jobs[i].tenants, dur)
	})
	res.NodeSweep = cells[:len(params.Nodes)]
	res.TenantSweep = cells[len(params.Nodes):]
	return res
}

// JSON renders the result for BENCH_placement.json.
func (r ScalingResult) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Render prints the Fig. S1 scaling tables.
func (r ScalingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.S1 — fleet scaling curve (seed %d, scale %.2f)\n", r.Seed, r.Scale)
	b.WriteString("decision-ms is wall-clock; simulated metrics are deterministic\n")

	table := func(title, key string, cells []ScalingCell, label func(ScalingCell) int) {
		fmt.Fprintf(&b, "\n%s\n", title)
		fmt.Fprintf(&b, "%8s %11s %6s %6s %9s %7s %8s\n",
			key, "decision", "fast", "viol", "admitted", "reject", "unsched")
		for _, c := range cells {
			fmt.Fprintf(&b, "%8d %9.3fms %5.0f%% %5.1f%% %9d %7d %8d\n",
				label(c), c.DecisionMs, c.FastShare*100, c.ViolationRate*100,
				c.Admitted, c.Rejected, c.Unschedulable)
		}
	}
	table(fmt.Sprintf("node sweep (%d tenants):", r.FixedTenants), "nodes",
		r.NodeSweep, func(c ScalingCell) int { return c.Nodes })
	table(fmt.Sprintf("tenant sweep (%d nodes):", r.FixedNodes), "tenants",
		r.TenantSweep, func(c ScalingCell) int { return c.Tenants })
	return b.String()
}
