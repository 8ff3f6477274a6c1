package experiments

import (
	"fmt"
	"strings"

	"ursa/internal/cluster"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// OutageCell is one (system, scenario) outcome of an outage grid — Fig. F1's
// node failure or Fig. R1's region failure — run with and without the outage.
// Its Backlog exposes a wedged service (e.g. an entry tier no one restores)
// even though that service's empty latency windows can't violate any SLA.
type OutageCell struct {
	System   string
	Scenario string // "no-fault", or the outage's name
	Result
}

// ResilienceResult reproduces Fig. F1 — the chaos/recovery study, an axis the
// paper's evaluation never exercises.
type ResilienceResult struct {
	Cells   []OutageCell
	FailAt  sim.Time
	FailFor sim.Time
}

// ResilienceSystems lists the systems compared under fault injection: Ursa
// against the two threshold autoscalers (the ML baselines have no story for
// sudden capacity loss and would only add training cost to the grid).
func ResilienceSystems() []string { return []string{"ursa", "auto-a", "auto-b"} }

// resiliencePolicy is the client-side retry policy every Fig. F1 cell runs
// with — including the no-fault ones, so the comparison isolates the fault
// itself rather than the cost of the resilience machinery.
func resiliencePolicy() *services.ResiliencePolicy {
	return &services.ResiliencePolicy{
		TimeoutMs:     500,
		MaxRetries:    3,
		BackoffBaseMs: 20,
		BackoffMaxMs:  500,
		JitterFrac:    0.25,
	}
}

// RunResilience executes the Fig. F1 grid: each system runs the
// social-network app on the PaperTestbed cluster, bound to it so node
// failures have real placements to evict, once undisturbed and once with the
// largest node (node-7, 88 CPUs) failing.
func RunResilience(opts Options) (ResilienceResult, error) {
	opts.defaults()
	cells, failAt, failFor, err := opts.outageGrid("figf1", "node-fail", Fault{Node: "node-7"}, ResilienceSystems(),
		func(s *Scenario, _ string) { s.Cluster = cluster.PaperTestbed() })
	return ResilienceResult{Cells: cells, FailAt: failAt, FailFor: failFor}, err
}

// outageGrid runs each system on the social network under constant load with
// the retry policy armed, once undisturbed ("no-fault") and once with the
// target failing a third of the way in and recovering a quarter-run later.
// place binds a cell's scenario to its cluster or regions. Cells run
// concurrently up to Options.Parallelism and merge in canonical order.
func (o *Options) outageGrid(tag, outage string, target Fault, systems []string, place func(s *Scenario, system string)) (cells []OutageCell, failAt, failFor sim.Time, err error) {
	dur := o.scaleTime(30*sim.Minute, 10*sim.Minute)
	warm := 2 * sim.Minute
	failAt, failFor = warm+dur/3, dur/4
	c, _ := AppCaseByName("social-network")
	type cellJob struct{ system, scen string }
	var jobs []cellJob
	for _, s := range systems {
		jobs = append(jobs, cellJob{s, "no-fault"}, cellJob{s, outage})
	}
	cells = make([]OutageCell, len(jobs))
	err = o.forEachErr(len(jobs), func(i int) error {
		j := jobs[i]
		o.logf("%s: %s / %s", tag, j.system, j.scen)
		mgr, err := o.newManagerFor(c, j.system)
		if err != nil {
			return fmt.Errorf("%s: %s / %s: %w", tag, j.system, j.scen, err)
		}
		s := Scenario{
			Seed: o.Seed + 1000, Spec: c.Spec, Mix: c.Mix,
			Pattern: workload.Constant{Value: c.TotalRPS}, Manager: mgr,
			Resilience: resiliencePolicy(), Warm: warm, Duration: dur,
		}
		place(&s, j.system)
		if j.scen == outage {
			s.Fault = target
			s.Fault.At, s.Fault.For = failAt, failFor
		}
		r, err := Run(s)
		if err != nil {
			return fmt.Errorf("%s: %s / %s: %w", tag, j.system, j.scen, err)
		}
		r.App = nil // cells outlive their run; do not pin its app
		cells[i] = OutageCell{System: j.system, Scenario: j.scen, Result: r}
		return nil
	})
	return cells, failAt, failFor, err
}

// Cell finds a specific result.
func (r ResilienceResult) Cell(system, scenario string) (OutageCell, bool) {
	return findCell(r.Cells, system, scenario)
}

func findCell(cells []OutageCell, system, scenario string) (OutageCell, bool) {
	for _, c := range cells {
		if c.System == system && c.Scenario == scenario {
			return c, true
		}
	}
	return OutageCell{}, false
}

// recoveryText renders a cell's recovery column.
func recoveryText(c OutageCell) string {
	switch {
	case c.Scenario == "no-fault":
		return "-"
	case c.RecoveryMin < 0:
		return "never"
	}
	return fmt.Sprintf("%.0f min", c.RecoveryMin)
}

// Render prints the Fig. F1 table.
func (r ResilienceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.F1 — resilience under a node failure (node-7 down %v→%v)\n",
		r.FailAt, r.FailAt+r.FailFor)
	fmt.Fprintf(&b, "%-8s %-10s %8s %8s %9s %8s %8s %8s %8s %8s %8s\n",
		"system", "scenario", "viol%", "avail%", "recovery", "avgCPU", "retries", "errors", "evicted", "unsched", "backlog")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-8s %-10s %7.1f%% %7.2f%% %9s %8.1f %8.0f %8.0f %8d %8d %8d\n",
			c.System, c.Scenario, c.ViolationRate*100, c.Availability*100, recoveryText(c),
			c.AvgCPUs, c.Retries, c.Errors, c.Evicted, c.Unschedulable, c.Backlog)
	}
	return b.String()
}
