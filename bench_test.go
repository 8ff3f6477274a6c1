// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§VII). Each benchmark runs the corresponding experiment
// harness and reports its headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduction alongside timing. Benchmarks default to a reduced
// scale to stay tractable; cmd/ursa-bench runs the same harnesses at full
// scale and writes the complete rendered tables.
package ursa_test

import (
	"testing"

	"ursa/internal/experiments"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/topology"
	"ursa/internal/workload"
)

// benchScale keeps each benchmark iteration in the seconds range.
const benchScale = 0.25

// benchOpts uses the default worker pool (GOMAXPROCS), so grid benchmarks
// report the parallel harness's wall clock. Results are identical at any
// parallelism; see BenchmarkFig11Sequential for the 1-worker baseline.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Scale: benchScale}
}

// BenchmarkFig02Backpressure regenerates the §III backpressure heat maps:
// per-tier p99 across nested-RPC, event-driven-RPC and MQ chains with the
// leaf tier CPU-throttled (Fig. 2).
func BenchmarkFig02Backpressure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunBackpressure(benchOpts())
		nested := r.Inflation("nested-rpc")
		event := r.Inflation("event-rpc")
		mq := r.Inflation("mq")
		b.ReportMetric(nested[3], "nested_t4_inflation_x")
		b.ReportMetric(nested[1], "nested_t2_inflation_x")
		b.ReportMetric(event[3], "event_t4_inflation_x")
		b.ReportMetric(mq[3], "mq_t4_inflation_x")
	}
}

// BenchmarkFig04Profiling regenerates the backpressure-free threshold
// profiling curves for the post and timeline-read services (Fig. 4; paper
// thresholds 46.2% and 60.0%).
func BenchmarkFig04Profiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunProfiling(benchOpts())
		b.ReportMetric(r.Services["post-storage"].Threshold*100, "post_threshold_pct")
		b.ReportMetric(r.Services["user-timeline"].Threshold*100, "timeline_threshold_pct")
	}
}

// BenchmarkTab05Exploration regenerates Table V: exploration overhead of
// Ursa vs the 10k-sample ML baselines (paper: ≥16.7× fewer samples, ≥128×
// less time).
func BenchmarkTab05Exploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunExploration(benchOpts())
		for _, row := range r.Rows {
			switch row.App {
			case "social-network":
				b.ReportMetric(row.TimeRatio, "social_time_ratio_x")
				b.ReportMetric(float64(row.UrsaSamples), "social_ursa_samples")
			case "media-service":
				b.ReportMetric(row.TimeRatio, "media_time_ratio_x")
			case "video-pipeline":
				b.ReportMetric(row.TimeRatio, "video_time_ratio_x")
			}
		}
	}
}

// BenchmarkFig09ModelAccuracy regenerates the estimated-vs-measured latency
// study on the social network (Fig. 9; paper ratios 0.97–1.05).
func BenchmarkFig09ModelAccuracy(b *testing.B) {
	c, _ := experiments.AppCaseByName("social-network")
	classes := []string{
		topology.UploadPost, topology.UpdateTimeline,
		topology.ObjectDetect, topology.SentimentAnalysis,
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAccuracy(benchOpts(), c, classes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio[topology.UploadPost], "upload_post_est_over_meas")
		b.ReportMetric(r.Ratio[topology.ObjectDetect], "object_detect_est_over_meas")
	}
}

// BenchmarkFig10ModelAccuracy regenerates Fig. 10 on the video pipeline
// (paper ratios 0.96 and 1.00 for low/high priority).
func BenchmarkFig10ModelAccuracy(b *testing.B) {
	c, _ := experiments.AppCaseByName("video-pipeline")
	classes := []string{topology.HighPriority, topology.LowPriority}
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAccuracy(benchOpts(), c, classes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio[topology.HighPriority], "high_est_over_meas")
		b.ReportMetric(r.Ratio[topology.LowPriority], "low_est_over_meas")
	}
}

// BenchmarkFig11SLAViolations regenerates the SLA-violation comparison on
// the social network (Fig. 11; full grid via cmd/ursa-bench -exp fig11).
func BenchmarkFig11SLAViolations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunComparison(benchOpts(), []string{"social-network"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := r.Cell("social-network", "dynamic", "ursa"); ok {
			b.ReportMetric(c.ViolationRate*100, "ursa_dynamic_viol_pct")
		}
		if c, ok := r.Cell("social-network", "dynamic", "auto-a"); ok {
			b.ReportMetric(c.ViolationRate*100, "autoa_dynamic_viol_pct")
		}
		if c, ok := r.Cell("social-network", "dynamic", "sinan"); ok {
			b.ReportMetric(c.ViolationRate*100, "sinan_dynamic_viol_pct")
		}
	}
}

// BenchmarkFig11Sequential runs the same grid with Parallelism: 1 — the
// sequential baseline for the worker pool's speedup (the rendered tables are
// byte-identical; only wall clock differs).
func BenchmarkFig11Sequential(b *testing.B) {
	opts := benchOpts()
	opts.Parallelism = 1
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunComparison(opts, []string{"social-network"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := r.Cell("social-network", "dynamic", "ursa"); ok {
			b.ReportMetric(c.ViolationRate*100, "ursa_dynamic_viol_pct")
		}
	}
}

// BenchmarkFig12CPUAllocation regenerates the CPU-allocation comparison on
// the social network (Fig. 12).
func BenchmarkFig12CPUAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunComparison(benchOpts(), []string{"social-network"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, sys := range []string{"ursa", "sinan", "firm", "auto-b"} {
			if c, ok := r.Cell("social-network", "constant", sys); ok {
				b.ReportMetric(c.AvgCPUs, sys+"_constant_cpus")
			}
		}
	}
}

// BenchmarkFig13DiurnalTrace regenerates the diurnal scaling traces
// (Fig. 13): Ursa scaling representative social-network services with load.
func BenchmarkFig13DiurnalTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunDiurnal(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := r.ScalingRange("post-storage")
		b.ReportMetric(lo, "post_storage_min_cpus")
		b.ReportMetric(hi, "post_storage_max_cpus")
	}
}

// BenchmarkTab06ControlPlane regenerates Table VI: wall-clock control-plane
// latency for deployment decisions and model updates.
func BenchmarkTab06ControlPlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunControlPlane(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DeployMs["ursa"], "ursa_deploy_ms")
		b.ReportMetric(r.DeployMs["sinan"], "sinan_deploy_ms")
		b.ReportMetric(r.DeployMs["firm"], "firm_deploy_ms")
		b.ReportMetric(r.DeployMs["auto-a"], "auto_deploy_ms")
		b.ReportMetric(r.UpdateMs["ursa"], "ursa_update_ms")
	}
}

// BenchmarkFig14Adaptation regenerates the service-change study (Fig. 14):
// partial re-exploration after the object-detect model swap.
func BenchmarkFig14Adaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAdaptation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.ReexploreSamples), "reexplore_samples")
		b.ReportMetric(r.ViolationRateOriginal*100, "original_req_viol_pct")
		b.ReportMetric(r.ViolationRateUpdated*100, "updated_req_viol_pct")
	}
}

// BenchmarkControllerDecision micro-benchmarks one Ursa control decision on
// a deployed social network — the critical-path cost Table VI attributes to
// Ursa's data plane.
func BenchmarkControllerDecision(b *testing.B) {
	opts := benchOpts()
	c, _ := experiments.AppCaseByName("social-network")
	mgr, err := opts.NewManager(c, "ursa")
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine(1)
	app, err := services.NewApp(eng, c.Spec)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.New(eng, app, workload.Constant{Value: c.TotalRPS}, c.Mix)
	gen.Start()
	mgr.Attach(app)
	eng.RunUntil(5 * sim.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One simulated minute per iteration advances metrics and runs one
		// controller tick.
		eng.RunFor(sim.Minute)
	}
	b.StopTimer()
	mgr.Detach()
}

// BenchmarkAblation quantifies Ursa's design choices: the percentile-budget
// DP vs an equal split, the controller's t-test vs raw crossings, and the
// backpressure-free exploration boundary.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BudgetCPUs, "budget_dp_cpus")
		b.ReportMetric(r.EqualSplitCPUs, "equal_split_cpus")
		b.ReportMetric(float64(r.TTestActions), "ttest_actions")
		b.ReportMetric(float64(r.NoTTestActions), "no_ttest_actions")
	}
}

// BenchmarkCorpus runs a small slice of the Fig. C1 generated-topology
// study (Ursa vs default autoscaling over seeded random applications); the
// full 100-topology × all-baselines corpus is `make bench-corpus`
// (BENCH_corpus.json).
func BenchmarkCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunCorpus(benchOpts(),
			experiments.CorpusParams{N: 5, Systems: []string{"ursa", "auto-a"}})
		b.ReportMetric(r.Verdicts[0].WinRate*100, "win_rate_vs_auto_a_pct")
		b.ReportMetric(r.Worst[0].ViolationRate*100, "ursa_worst_viol_pct")
	}
}
