package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ursa/internal/sim"
	"ursa/internal/topology"
	"ursa/internal/workload"
)

// ComparisonCell is one (app, load, system) deployment outcome — a bar of
// Fig. 11 (SLA violation rate) and Fig. 12 (average CPU allocation).
type ComparisonCell struct {
	App           string
	Load          string // "constant", "dynamic", "skewed"
	System        string
	ViolationRate float64
	AvgCPUs       float64
	DecisionMs    float64
}

// ComparisonResult reproduces Fig. 11 and Fig. 12.
type ComparisonResult struct {
	Cells []ComparisonCell
}

// Systems lists the competing approaches of §VII-B.
func Systems() []string { return []string{"ursa", "sinan", "firm", "auto-a", "auto-b"} }

// loadScenario describes one load regime for an app.
type loadScenario struct {
	name    string
	pattern workload.Pattern
	mix     workload.Mix
}

// loadScenarios builds the §VII-E load grid for a case: constant, dynamic
// (diurnal + burst phases) and skewed request mixes. Scenario features are
// placed relative to dur so scaled-down runs still exercise them.
func loadScenarios(c AppCase, dur sim.Time) []loadScenario {
	// Dynamic load: a diurnal ramp with a sharp burst superimposed (the
	// paper's bursts raise RPS by 50–125% abruptly).
	dynamic := workload.Modulate{
		Base:   workload.Diurnal{Base: c.TotalRPS * 0.6, Peak: c.TotalRPS * 1.3, Period: dur * 4 / 5},
		Factor: 2.0,
		Start:  dur * 2 / 5,
		Len:    dur / 5,
	}
	scenarios := []loadScenario{
		{"constant", workload.Constant{Value: c.TotalRPS}, c.Mix},
		{"dynamic", dynamic, c.Mix},
	}
	var skewed workload.Mix
	switch c.Name {
	case "video-pipeline":
		// Priority ratios not covered by exploration: 40:60 (the paper also
		// runs 60:40; the bench CLI exposes both).
		skewed = topology.VideoPipelineMix(40, 60)
	case "media-service":
		skewed = c.Mix.Scaled(topology.RateVideo, 2)
	default:
		skewed = c.Mix.Scaled(topology.UploadComment, 2)
	}
	scenarios = append(scenarios, loadScenario{"skewed", workload.Constant{Value: c.TotalRPS}, skewed})
	return scenarios
}

// comparisonCellJob is one (app, scenario, system) deployment of the grid.
type comparisonCellJob struct {
	c      AppCase
	scen   loadScenario
	system string
}

// comparisonJobs enumerates the filtered grid in its canonical order.
func comparisonJobs(dur sim.Time, appFilter, systemFilter []string) []comparisonCellJob {
	var jobs []comparisonCellJob
	for _, c := range AppCases() {
		if appFilter != nil && !contains(appFilter, c.Name) {
			continue
		}
		for _, scen := range loadScenarios(c, dur) {
			for _, system := range Systems() {
				if systemFilter != nil && !contains(systemFilter, system) {
					continue
				}
				jobs = append(jobs, comparisonCellJob{c: c, scen: scen, system: system})
			}
		}
	}
	return jobs
}

// RunComparison executes the Fig. 11/12 grid. Apps and systems may be
// filtered (nil means all). Every cell gets a fresh manager — reusing one
// across scenarios would make baseline results depend on scenario order and
// carry warm RL/autoscaler state between runs — and cells run concurrently
// up to Options.Parallelism, merged back in canonical grid order. Expensive
// preparation (exploration, ML training) happens lazily, so filtered-out
// systems are never trained.
func RunComparison(opts Options, appFilter, systemFilter []string) (ComparisonResult, error) {
	opts.defaults()
	dur := opts.scaleTime(30*sim.Minute, 8*sim.Minute)
	jobs := comparisonJobs(dur, appFilter, systemFilter)
	cells := make([]ComparisonCell, len(jobs))
	err := opts.forEachErr(len(jobs), func(i int) error {
		j := jobs[i]
		mgr := opts.newManagerFor(j.c, j.system)
		opts.logf("fig11: %s / %s / %s", j.c.Name, j.scen.name, j.system)
		r, err := Run(opts.deployment(j.c, mgr, j.scen.pattern, j.scen.mix, dur))
		if err != nil {
			return fmt.Errorf("fig11: %s / %s / %s: %w", j.c.Name, j.scen.name, j.system, err)
		}
		cells[i] = ComparisonCell{
			App: j.c.Name, Load: j.scen.name, System: j.system,
			ViolationRate: r.ViolationRate,
			AvgCPUs:       r.AvgCPUs,
			DecisionMs:    r.DecisionMs,
		}
		return nil
	})
	return ComparisonResult{Cells: cells}, err
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Cell finds a specific result.
func (r ComparisonResult) Cell(app, load, system string) (ComparisonCell, bool) {
	for _, c := range r.Cells {
		if c.App == app && c.Load == load && c.System == system {
			return c, true
		}
	}
	return ComparisonCell{}, false
}

// Render prints the Fig. 11 and Fig. 12 tables.
func (r ComparisonResult) Render() string {
	var b strings.Builder
	apps := map[string]bool{}
	loads := map[string]bool{}
	for _, c := range r.Cells {
		apps[c.App] = true
		loads[c.Load] = true
	}
	appList := keys(apps)
	loadList := keys(loads)
	b.WriteString("Fig.11 — SLA violation rate (%) / Fig.12 — average CPU allocation (cores)\n")
	for _, app := range appList {
		fmt.Fprintf(&b, "\n%s:\n%-10s", app, "load")
		for _, s := range Systems() {
			fmt.Fprintf(&b, "%20s", s)
		}
		b.WriteString("\n")
		for _, load := range loadList {
			fmt.Fprintf(&b, "%-10s", load)
			for _, s := range Systems() {
				if c, ok := r.Cell(app, load, s); ok {
					fmt.Fprintf(&b, "%11.1f%%/%6.1fc", c.ViolationRate*100, c.AvgCPUs)
				} else {
					fmt.Fprintf(&b, "%20s", "-")
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
