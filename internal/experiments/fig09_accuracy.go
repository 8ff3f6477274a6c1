package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ursa/internal/core"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/stats"
	"ursa/internal/workload"
)

// AccuracyPoint is one 5-minute window of Fig. 9/10: the model's estimated
// latency vs the measured latency for one request class.
type AccuracyPoint struct {
	Minute      float64
	EstimatedMs float64
	MeasuredMs  float64
}

// AccuracyResult reproduces Fig. 9 (social network) or Fig. 10 (video
// pipeline): estimated vs measured latency over a deployment with
// dynamically changing resource allocations.
type AccuracyResult struct {
	App string
	// Series maps class → windows.
	Series map[string][]AccuracyPoint
	// Ratio maps class → mean(estimated/measured).
	Ratio map[string]float64
}

// RunAccuracy measures estimation accuracy for the given app case. Per
// §VII-D, per-service and end-to-end distributions are recorded every
// window while allocations change; the estimator is the Theorem 1 bound on
// the window's own per-service distributions, scaled by the expected
// overestimation ratio calibrated on the first quarter of windows. It fails
// only when the app case's spec does not deploy.
func RunAccuracy(opts Options, c AppCase, classes []string) (AccuracyResult, error) {
	opts.defaults()
	windowLen := 5 * sim.Minute
	nWindows := opts.scaleInt(30, 8) // 150 min at full scale

	eng := sim.NewEngine(opts.Seed)
	app, err := services.NewApp(eng, c.Spec)
	if err != nil {
		return AccuracyResult{}, err
	}
	gen := workload.New(eng, app, workload.Constant{Value: c.TotalRPS}, c.Mix)
	gen.Start()

	// Dynamically vary allocations (the online-exploration regime of
	// §VII-D): random walk over replica counts, staying feasible.
	rng := eng.RNG("fig9-walk")
	names := app.ServiceNames()
	eng.Every(2*windowLen/3, func() {
		name := names[rng.Intn(len(names))]
		svc := app.Service(name)
		delta := rng.Intn(3) - 1
		svc.SetReplicas(svc.Replicas() + delta)
	})

	targets := map[string]core.ClassTarget{}
	for _, tgt := range core.TargetsFor(c.Spec) {
		targets[tgt.Name] = tgt
	}

	type window struct {
		bounds   map[string]float64
		measured map[string]float64
	}
	var wins []window
	for w := 0; w < nWindows; w++ {
		start := eng.Now()
		eng.RunFor(windowLen)
		end := eng.Now()
		dists := map[string][]float64{}
		for _, name := range names {
			svc := app.Service(name)
			for _, class := range svc.RespTime.Classes() {
				rec := svc.RespTime.Class(class)
				dists[name+"/"+class] = rec.Between(start, end)
			}
		}
		win := window{bounds: map[string]float64{}, measured: map[string]float64{}}
		for _, class := range classes {
			tgt := targets[class]
			if bound, ok := core.EstimateBound(tgt, dists); ok {
				win.bounds[class] = bound
			}
			if rec := app.E2E.Class(class); rec != nil {
				vals := rec.Between(start, end)
				if len(vals) > 0 {
					win.measured[class] = stats.Percentile(vals, tgt.Percentile)
				}
			}
		}
		wins = append(wins, win)
	}

	// Calibrate the overestimation ratio on the first quarter of windows.
	calib := map[string]float64{}
	nCal := max(1, len(wins)/4)
	for _, class := range classes {
		var ratios []float64
		for _, w := range wins[:nCal] {
			if b, ok := w.bounds[class]; ok && b > 0 {
				if m, ok := w.measured[class]; ok && m > 0 {
					ratios = append(ratios, m/b)
				}
			}
		}
		if len(ratios) > 0 {
			calib[class] = stats.Mean(ratios)
		} else {
			calib[class] = 1
		}
	}

	res := AccuracyResult{App: c.Name, Series: map[string][]AccuracyPoint{}, Ratio: map[string]float64{}}
	for _, class := range classes {
		var ratios []float64
		for wi, w := range wins[nCal:] {
			b, okB := w.bounds[class]
			m, okM := w.measured[class]
			if !okB || !okM || m <= 0 {
				continue
			}
			est := b * calib[class]
			res.Series[class] = append(res.Series[class], AccuracyPoint{
				Minute:      float64(nCal+wi) * windowLen.Minutes(),
				EstimatedMs: est,
				MeasuredMs:  m,
			})
			ratios = append(ratios, est/m)
		}
		if len(ratios) > 0 {
			res.Ratio[class] = stats.Mean(ratios)
		}
	}
	return res, nil
}

// Render prints the estimated-vs-measured series.
func (r AccuracyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.9/10 — %s: estimated vs measured latency\n", r.App)
	classes := make([]string, 0, len(r.Series))
	for class := range r.Series {
		classes = append(classes, class)
	}
	sort.Strings(classes) // map order would shuffle sections run to run
	for _, class := range classes {
		pts := r.Series[class]
		fmt.Fprintf(&b, "class %s (mean est/meas ratio %.2f):\n", class, r.Ratio[class])
		fmt.Fprintf(&b, "%8s %14s %14s\n", "min", "estimated(ms)", "measured(ms)")
		for _, p := range pts {
			fmt.Fprintf(&b, "%8.0f %14.1f %14.1f\n", p.Minute, p.EstimatedMs, p.MeasuredMs)
		}
	}
	return b.String()
}
