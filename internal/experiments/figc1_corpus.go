package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ursa/internal/sim"
	"ursa/internal/spec"
	"ursa/internal/workload"
)

// The corpus experiment (Fig. C1 — beyond the paper) asks the
// generalization question the three hand-built benchmarks cannot: does
// Ursa's win over the baselines hold across the topology space, or only on
// the apps it was tuned against? It samples N random layered-DAG
// applications from the seeded generator in internal/spec, runs Ursa and
// every baseline on each at the generated nominal load, and reports
// per-baseline win rates plus the worst cell each system produced. The
// whole corpus is reproducible from (seed, N): topology i of a run is
// Generate(seed*offset + i), and cells are merged in canonical order, so
// output is byte-identical at any parallelism.

// CorpusParams sizes the generated-topology experiment.
type CorpusParams struct {
	// N is the number of generated topologies (default 100).
	N int
	// Systems to compare (default Systems(): ursa + all baselines).
	Systems []string
}

func (p *CorpusParams) defaults() {
	if p.N <= 0 {
		p.N = 100
	}
	if p.Systems == nil {
		p.Systems = Systems()
	}
}

// corpusSeedStride separates per-topology generator seed streams.
const corpusSeedStride = 1000003

// CorpusTopology summarizes one generated application.
type CorpusTopology struct {
	Name     string  `json:"name"`
	Seed     int64   `json:"seed"`
	Services int     `json:"services"`
	Classes  int     `json:"classes"`
	RPS      float64 `json:"rps"`
}

// CorpusCell is one (topology, system) deployment outcome.
type CorpusCell struct {
	Topology      string  `json:"topology"`
	System        string  `json:"system"`
	ViolationRate float64 `json:"violation_rate"`
	AvgCPUs       float64 `json:"avg_cpus"`
	// DeployFailed marks a manager that could not produce a deployment at
	// all (e.g. no feasible LPR combination for a generated SLA); the cell
	// scores as a total SLA failure.
	DeployFailed bool `json:"deploy_failed,omitempty"`
}

// CorpusVerdict aggregates Ursa-vs-baseline outcomes over the corpus.
type CorpusVerdict struct {
	Baseline string  `json:"baseline"`
	Wins     int     `json:"wins"`
	Ties     int     `json:"ties"`
	Losses   int     `json:"losses"`
	WinRate  float64 `json:"win_rate"`
}

// CorpusWorst is a system's worst cell: its highest violation rate.
type CorpusWorst struct {
	System        string  `json:"system"`
	Topology      string  `json:"topology"`
	ViolationRate float64 `json:"violation_rate"`
	AvgCPUs       float64 `json:"avg_cpus"`
}

// CorpusResult is the full Fig. C1 output, JSON-serializable for
// BENCH_corpus.json.
type CorpusResult struct {
	N          int              `json:"n"`
	Seed       int64            `json:"seed"`
	Scale      float64          `json:"scale"`
	Systems    []string         `json:"systems"`
	Topologies []CorpusTopology `json:"topologies"`
	Cells      []CorpusCell     `json:"cells"`
	Verdicts   []CorpusVerdict  `json:"verdicts"`
	Worst      []CorpusWorst    `json:"worst"`
}

// corpusMeets is the SLA bar for "this system handled the topology": at most
// 5% of (class, minute) windows violated.
const corpusMeets = 0.05

// corpusBeats reports whether outcome a strictly beats outcome b: meeting
// the SLA when b does not, meeting it on ≥2% fewer CPUs, or — when both
// fail — failing by less.
func corpusBeats(a, b CorpusCell) bool {
	am, bm := a.ViolationRate <= corpusMeets, b.ViolationRate <= corpusMeets
	switch {
	case am && !bm:
		return true
	case am && bm:
		return a.AvgCPUs < b.AvgCPUs*0.98
	case !am && !bm:
		return a.ViolationRate < b.ViolationRate-1e-9
	default:
		return false
	}
}

// GenerateCorpusCase builds topology i of the corpus for the given master
// seed, as an AppCase ready for the harness. Exposed so ursa-sim can dump
// corpus members for inspection.
func GenerateCorpusCase(seed int64, i int) (AppCase, CorpusTopology, error) {
	gp := spec.GenParams{
		Name: fmt.Sprintf("corpus-s%d-%03d", seed, i),
		Seed: seed*corpusSeedStride + int64(i),
	}
	f, err := spec.Generate(gp)
	if err != nil {
		return AppCase{}, CorpusTopology{}, err
	}
	c, err := spec.Build(f)
	if err != nil {
		return AppCase{}, CorpusTopology{}, err
	}
	return AppCase{Name: gp.Name, Spec: c.Spec, Mix: c.Mix, TotalRPS: c.Rate},
		CorpusTopology{
			Name:     gp.Name,
			Seed:     gp.Seed,
			Services: len(c.Spec.Services),
			Classes:  len(c.Spec.Classes),
			RPS:      c.Rate,
		}, nil
}

// runCorpusCell deploys one (topology, system) cell. Generated topologies
// are adversarial by design: a sampled SLA can be infeasible for a manager's
// explored allocation space, and such a manager fails its deploy — Ursa
// through its exploration or its model solve in Attach. The corpus records
// either as a total SLA failure for the cell — a finding, not a crash.
func runCorpusCell(opts Options, c AppCase, system string, dur sim.Time) CorpusCell {
	cell := CorpusCell{Topology: c.Name, System: system}
	mgr, err := opts.newManagerFor(c, system)
	var r Result
	if err == nil {
		r, err = Run(opts.deployment(c, mgr, workload.Constant{Value: c.TotalRPS}, c.Mix, dur))
	}
	if err != nil {
		opts.logf("figc1: %s / %s: deploy failed: %v", c.Name, system, err)
		cell.ViolationRate, cell.AvgCPUs, cell.DeployFailed = 1, 0, true
		return cell
	}
	cell.ViolationRate, cell.AvgCPUs = r.ViolationRate, r.AvgCPUs
	return cell
}

// RunCorpus executes the generated-topology grid: N topologies × systems,
// each deployed at its generated nominal load for a scaled window.
func RunCorpus(opts Options, params CorpusParams) (CorpusResult, error) {
	opts.defaults()
	params.defaults()
	res := CorpusResult{N: params.N, Seed: opts.Seed, Scale: opts.Scale, Systems: params.Systems}

	cases := make([]AppCase, params.N)
	for i := 0; i < params.N; i++ {
		c, topo, err := GenerateCorpusCase(opts.Seed, i)
		if err != nil {
			return res, fmt.Errorf("figc1: generate %d: %w", i, err)
		}
		cases[i] = c
		res.Topologies = append(res.Topologies, topo)
	}

	dur := opts.scaleTime(12*sim.Minute, 5*sim.Minute)
	type cellJob struct {
		ci     int
		system string
	}
	var jobs []cellJob
	for i := range cases {
		for _, s := range params.Systems {
			jobs = append(jobs, cellJob{i, s})
		}
	}
	cells := make([]CorpusCell, len(jobs))
	opts.forEach(len(jobs), func(j int) {
		job := jobs[j]
		opts.logf("figc1: %s / %s", cases[job.ci].Name, job.system)
		cells[j] = runCorpusCell(opts, cases[job.ci], job.system, dur)
	})
	res.Cells = cells

	// Ursa-vs-baseline verdicts per topology.
	cell := func(topo, system string) (CorpusCell, bool) {
		for _, c := range cells {
			if c.Topology == topo && c.System == system {
				return c, true
			}
		}
		return CorpusCell{}, false
	}
	for _, b := range params.Systems {
		if b == "ursa" {
			continue
		}
		v := CorpusVerdict{Baseline: b}
		for _, t := range res.Topologies {
			u, uok := cell(t.Name, "ursa")
			bc, bok := cell(t.Name, b)
			if !uok || !bok {
				continue
			}
			switch {
			case corpusBeats(u, bc):
				v.Wins++
			case corpusBeats(bc, u):
				v.Losses++
			default:
				v.Ties++
			}
		}
		if n := v.Wins + v.Ties + v.Losses; n > 0 {
			v.WinRate = float64(v.Wins) / float64(n)
		}
		res.Verdicts = append(res.Verdicts, v)
	}

	// Worst cell per system.
	for _, s := range params.Systems {
		w := CorpusWorst{System: s, ViolationRate: -1}
		for _, c := range cells {
			if c.System == s && c.ViolationRate > w.ViolationRate {
				w.Topology, w.ViolationRate, w.AvgCPUs = c.Topology, c.ViolationRate, c.AvgCPUs
			}
		}
		if w.ViolationRate >= 0 {
			res.Worst = append(res.Worst, w)
		}
	}
	return res, nil
}

// JSON renders the result for BENCH_corpus.json.
func (r CorpusResult) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Render prints the Fig. C1 summary table.
func (r CorpusResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.C1 — generated-topology corpus (N=%d, seed %d, scale %.2f)\n", r.N, r.Seed, r.Scale)
	fmt.Fprintf(&b, "SLA bar: ≤%.0f%% violated windows\n\n", corpusMeets*100)

	fmt.Fprintf(&b, "%-10s %6s %6s %8s %10s\n", "vs", "wins", "ties", "losses", "win-rate")
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "%-10s %6d %6d %8d %9.1f%%\n", v.Baseline, v.Wins, v.Ties, v.Losses, v.WinRate*100)
	}

	b.WriteString("\nper-system aggregate / worst cell:\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %7s %12s %18s\n", "system", "mean-viol", "mean-cpus", "failed", "worst-viol", "worst-topology")
	for _, s := range r.Systems {
		var viol, cpus float64
		n, failed := 0, 0
		for _, c := range r.Cells {
			if c.System == s {
				viol += c.ViolationRate
				cpus += c.AvgCPUs
				n++
				if c.DeployFailed {
					failed++
				}
			}
		}
		if n == 0 {
			continue
		}
		var worst CorpusWorst
		for _, w := range r.Worst {
			if w.System == s {
				worst = w
			}
		}
		fmt.Fprintf(&b, "%-10s %9.1f%% %9.1fc %7d %11.1f%% %18s\n",
			s, viol/float64(n)*100, cpus/float64(n), failed, worst.ViolationRate*100, worst.Topology)
	}

	// The hardest topologies overall, by Ursa violation, for drill-down.
	type hard struct {
		name string
		v    float64
	}
	var hards []hard
	for _, c := range r.Cells {
		if c.System == "ursa" {
			hards = append(hards, hard{c.Topology, c.ViolationRate})
		}
	}
	sort.Slice(hards, func(i, j int) bool {
		if hards[i].v != hards[j].v {
			return hards[i].v > hards[j].v
		}
		return hards[i].name < hards[j].name
	})
	if len(hards) > 5 {
		hards = hards[:5]
	}
	b.WriteString("\nhardest topologies for ursa:\n")
	for _, h := range hards {
		fmt.Fprintf(&b, "  %-18s %5.1f%%\n", h.name, h.v*100)
	}
	return b.String()
}
