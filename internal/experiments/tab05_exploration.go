package experiments

import (
	"fmt"
	"strings"

	"ursa/internal/baselines/firm"
	"ursa/internal/baselines/sinan"
	"ursa/internal/sim"
)

// ExplorationRow is one application's Table V entry.
type ExplorationRow struct {
	App          string
	UrsaSamples  int
	UrsaHours    float64 // wall exploration time (parallel per-service)
	MLSamples    int
	MLHours      float64 // samples × 1 min, the paper's accounting
	SampleRatio  float64
	TimeRatio    float64
	UrsaSimHours float64 // actually simulated time (sum)
}

// ExplorationResult reproduces Table V.
type ExplorationResult struct {
	Rows []ExplorationRow
	// MLTargetSamples is the paper-faithful sample budget the ratios are
	// normalised to (10,000); the harness may simulate fewer windows and
	// extrapolate linearly, which is exact for time accounting.
	MLTargetSamples int
}

// RunExploration measures exploration overhead for Ursa vs the ML baselines
// on the three main applications (the paper's Table V uses social, media and
// video).
func RunExploration(opts Options) (ExplorationResult, error) {
	opts.defaults()
	mlTarget := 10000
	var apps []AppCase
	for _, c := range AppCases() {
		if c.Name == "vanilla-social-network" {
			continue // Table V covers the three primary apps
		}
		apps = append(apps, c)
	}
	// Each app's row (exploration + ML collection + pretraining) is
	// independent: fan the rows over the worker pool and keep table order.
	rows := make([]ExplorationRow, len(apps))
	err := opts.forEachErr(len(apps), func(i int) (err error) {
		rows[i], err = opts.explorationRow(apps[i], mlTarget)
		return err
	})
	return ExplorationResult{Rows: rows, MLTargetSamples: mlTarget}, err
}

// explorationRow measures one application's Table V entry.
func (o *Options) explorationRow(c AppCase, mlTarget int) (ExplorationRow, error) {
	o.logf("tab5: exploring %s with Ursa", c.Name)
	_, profiles, sum, err := o.ursaProfiles(c)
	if err != nil {
		return ExplorationRow{}, fmt.Errorf("tab5: %w", err)
	}

	// ML collection: run a scaled number of windows to exercise the
	// real collection code, then account at the paper's 10k × 1 min.
	o.logf("tab5: collecting ML samples for %s", c.Name)
	sinan.Collect(c.Spec, c.Mix, c.TotalRPS, sinan.CollectConfig{
		Samples: o.scaleInt(400, 100),
		Window:  exploreWindow,
		Seed:    o.Seed,
	})
	f := firm.New(c.Spec, specServiceNames(c.Spec), c.TotalRPS*2, firm.Config{Seed: o.Seed})
	firm.Pretrain(f, c.Mix, c.TotalRPS, firm.PretrainConfig{
		Samples: o.scaleInt(200, 60),
		Window:  exploreWindow,
		Seed:    o.Seed,
	})

	// Per the paper, Ursa's exploration time is the longest single
	// service's profiling time (services explore in parallel), with
	// each sample costing one minute.
	perServiceMax := 0
	for _, p := range profiles {
		if p.Samples > perServiceMax {
			perServiceMax = p.Samples
		}
	}
	ursaHours := (sim.Time(perServiceMax) * sim.Minute).Hours()

	mlHours := (sim.Time(mlTarget) * sim.Minute).Hours()
	row := ExplorationRow{
		App:          c.Name,
		UrsaSamples:  sum.Samples,
		UrsaHours:    ursaHours,
		MLSamples:    mlTarget,
		MLHours:      mlHours,
		UrsaSimHours: sum.TotalTime.Hours(),
	}
	if row.UrsaSamples > 0 {
		row.SampleRatio = float64(row.MLSamples) / float64(row.UrsaSamples)
	}
	if row.UrsaHours > 0 {
		row.TimeRatio = row.MLHours / row.UrsaHours
	}
	return row, nil
}

// Render prints Table V.
func (r ExplorationResult) Render() string {
	var b strings.Builder
	b.WriteString("Table V — exploration overhead (samples, hours at 1 sample/min)\n")
	fmt.Fprintf(&b, "%-24s %14s %12s %14s %12s %10s %10s\n",
		"app", "ursa-samples", "ursa-hours", "ml-samples", "ml-hours", "sample-x", "time-x")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %14d %12.1f %14d %12.1f %9.1fx %9.1fx\n",
			row.App, row.UrsaSamples, row.UrsaHours, row.MLSamples, row.MLHours,
			row.SampleRatio, row.TimeRatio)
	}
	return b.String()
}
