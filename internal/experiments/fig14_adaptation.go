package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ursa/internal/core"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/stats"
	"ursa/internal/topology"
	"ursa/internal/workload"
)

// AdaptationResult reproduces §VII-G / Fig. 14: the object-detection service
// swaps its model (DETR → MobileNet); Ursa re-explores only that service,
// recalculates thresholds, and redeploys.
type AdaptationResult struct {
	// ReexploreSamples / ReexploreHours are the partial-exploration cost.
	ReexploreSamples int
	ReexploreHours   float64
	// Original / Updated hold the end-to-end object-detect latency samples
	// of the deployments before and after the change.
	Original, Updated []float64
	// ViolationRateOriginal / Updated are the fractions of object-detect
	// requests whose latency exceeded the SLA target — the metric Fig. 14
	// reports against the latency CDF (0.62% and 0.50% in the paper).
	ViolationRateOriginal float64
	ViolationRateUpdated  float64
	SLAMillis             float64
}

// mobilenetSocialNetwork returns the social network with the object
// detector swapped to a lighter model (≈3.5× less CPU per inference).
func mobilenetSocialNetwork() services.AppSpec {
	spec := topology.SocialNetwork()
	ss := spec.ServiceSpecByName("object-detect-ml")
	ss.Handlers = map[string][]services.Step{
		topology.ObjectDetect: services.Seq(
			services.Call{Service: "image-store", Mode: services.NestedRPC},
			services.Call{Service: "post-storage", Mode: services.NestedRPC},
			services.Compute{MeanMs: 620, CV: 0.4},
		),
	}
	return spec
}

// RunAdaptation executes the service-change study.
func RunAdaptation(opts Options) (AdaptationResult, error) {
	opts.defaults()
	c, _ := AppCaseByName("social-network")
	res := AdaptationResult{SLAMillis: 10000}

	// Full exploration on the original app, deploy, measure.
	opts.logf("fig14: exploring original application")
	ex, profiles, _ := opts.ursaProfiles(c)
	dur := opts.scaleTime(20*sim.Minute, 16*sim.Minute)
	var err error
	res.Original, res.ViolationRateOriginal, err = opts.deployAndMeasureClass(c, profiles, topology.ObjectDetect, dur)
	if err != nil {
		return res, fmt.Errorf("fig14: original deployment: %w", err)
	}

	// Service update: only the modified service is re-explored (§V.2).
	opts.logf("fig14: partial re-exploration of object-detect-ml")
	updated := mobilenetSocialNetwork()
	ex2 := &core.Explorer{Spec: updated, Mix: ex.Mix, TotalRPS: ex.TotalRPS, Thresholds: ex.Thresholds}
	p, err := ex2.ExploreService("object-detect-ml", opts.exploreConfig())
	if err != nil {
		return res, fmt.Errorf("fig14: re-exploration: %w", err)
	}
	res.ReexploreSamples = p.Samples
	res.ReexploreHours = (sim.Time(p.Samples) * sim.Minute).Hours()
	newProfiles := map[string]*core.Profile{}
	for k, v := range profiles {
		newProfiles[k] = v
	}
	newProfiles["object-detect-ml"] = p

	updatedCase := c
	updatedCase.Spec = updated
	res.Updated, res.ViolationRateUpdated, err = opts.deployAndMeasureClass(updatedCase, newProfiles, topology.ObjectDetect, dur)
	if err != nil {
		return res, fmt.Errorf("fig14: updated deployment: %w", err)
	}
	return res, nil
}

// deployAndMeasureClass runs Ursa on a case and returns the end-to-end
// latency samples of one class and the fraction of them over its SLA target.
func (o *Options) deployAndMeasureClass(c AppCase, profiles map[string]*core.Profile, class string, dur sim.Time) ([]float64, float64, error) {
	warm := 2 * sim.Minute
	r, err := Run(Scenario{
		Seed: o.Seed + 40, Spec: c.Spec, Mix: c.Mix,
		Pattern: workload.Constant{Value: c.TotalRPS},
		Manager: o.ursaWith(c, profiles), Warm: warm, Duration: dur,
	})
	if err != nil {
		return nil, 0, err
	}
	rec := r.App.E2E.Class(class)
	if rec == nil {
		return nil, 0, nil
	}
	samples := rec.Between(warm, warm+dur)
	cs := c.Spec.Class(class)
	violated := 0
	for _, v := range samples {
		if v > cs.SLAMillis {
			violated++
		}
	}
	rate := 0.0
	if len(samples) > 0 {
		rate = float64(violated) / float64(len(samples))
	}
	return samples, rate, nil
}

// CDF returns sorted (latency, cumulative fraction) pairs for rendering.
func CDF(samples []float64) ([]float64, []float64) {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	ys := make([]float64, len(xs))
	for i := range xs {
		ys[i] = float64(i+1) / float64(len(xs))
	}
	return xs, ys
}

// Render prints the adaptation summary and latency CDF quantiles.
func (r AdaptationResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig.14 — adapting to a service change (object-detect: DETR → MobileNet)\n")
	fmt.Fprintf(&b, "partial re-exploration: %d samples, %.2f h\n", r.ReexploreSamples, r.ReexploreHours)
	fmt.Fprintf(&b, "SLA violation rate: original %.2f%%, updated %.2f%% (SLA %.0f ms)\n",
		r.ViolationRateOriginal*100, r.ViolationRateUpdated*100, r.SLAMillis)
	fmt.Fprintf(&b, "%10s %14s %14s\n", "quantile", "original(ms)", "updated(ms)")
	for _, q := range []float64{10, 25, 50, 75, 90, 99} {
		fmt.Fprintf(&b, "%9.0f%% %14.0f %14.0f\n", q,
			stats.Percentile(r.Original, q), stats.Percentile(r.Updated, q))
	}
	return b.String()
}
