// ursa-bench regenerates the paper's tables and figures on the simulated
// testbed and writes the rendered results under an output directory.
//
// Usage:
//
//	ursa-bench -exp all -scale 1.0 -out results
//	ursa-bench -exp fig11 -apps social-network,media-service -scale 0.3
//
// Experiments: fig2, fig4, tab5, fig9, fig10, fig11 (includes fig12), fig13,
// tab6, fig14, figf1 (fault injection / recovery), figr1 (region failover),
// figr2 (follow-the-sun multi-region load), figc1 (generated-topology
// corpus; -corpus-n sizes it, -corpus-json also writes the machine-readable
// result), figs1 (fleet scaling curve; -figs1-nodes/-figs1-tenants size the
// sweeps, -figs1-json writes BENCH_placement.json), all. Scale < 1 shortens
// deployments and ML sample counts proportionally; shapes are preserved.
//
// Independent simulation cells run concurrently on a bounded worker pool
// (-parallel, default GOMAXPROCS); results are merged in a canonical order,
// so any parallelism level writes byte-identical tables. -parallel 1 forces
// fully sequential execution.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ursa/internal/experiments"
	"ursa/internal/topology"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig2|fig4|tab5|fig9|fig10|fig11|fig13|tab6|fig14|figf1|figr1|figr2|figc1|figs1|ablation|all")
		scale    = flag.Float64("scale", 1.0, "duration/sample scale (1.0 = paper-like proportions)")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("out", "results", "output directory")
		apps     = flag.String("apps", "", "comma-separated app filter for fig11/fig12")
		systems  = flag.String("systems", "", "comma-separated system filter for fig11/fig12")
		parallel = flag.Int("parallel", 0, "worker pool size for independent simulation cells (0 = GOMAXPROCS, 1 = sequential)")
		quiet    = flag.Bool("q", false, "suppress progress logging")

		corpusN    = flag.Int("corpus-n", 100, "number of generated topologies for figc1")
		corpusJSON = flag.String("corpus-json", "", "also write the figc1 result as JSON to this path")

		figs1Nodes   = flag.String("figs1-nodes", "", "comma-separated node counts for the figs1 node sweep (default 8..1024 doubling)")
		figs1Tenants = flag.String("figs1-tenants", "", "comma-separated tenant counts for the figs1 tenant sweep (default 1..32 doubling)")
		figs1JSON    = flag.String("figs1-json", "", "also write the figs1 result as JSON to this path (BENCH_placement.json)")
	)
	flag.Parse()

	nodeSweep, err := parseInts(*figs1Nodes)
	if err != nil {
		fatal(fmt.Errorf("-figs1-nodes: %w", err))
	}
	tenantSweep, err := parseInts(*figs1Tenants)
	if err != nil {
		fatal(fmt.Errorf("-figs1-tenants: %w", err))
	}

	opts := experiments.Options{Seed: *seed, Scale: *scale, Parallelism: *parallel}
	if !*quiet {
		opts.Log = os.Stderr
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	var appFilter, sysFilter []string
	if *apps != "" {
		appFilter = strings.Split(*apps, ",")
	}
	if *systems != "" {
		sysFilter = strings.Split(*systems, ",")
	}

	type job struct {
		name string
		fn   func() string
	}
	var jobs []job
	run := func(name string, fn func() string) {
		if *exp != "all" && *exp != name {
			return
		}
		jobs = append(jobs, job{name, fn})
	}
	// rendered renders a fallible experiment's table; a failed deployment
	// ends the whole run.
	rendered := func(r interface{ Render() string }, err error) string {
		if err != nil {
			fatal(err)
		}
		return r.Render()
	}

	run("fig2", func() string { return experiments.RunBackpressure(opts).Render() })
	run("fig4", func() string { return experiments.RunProfiling(opts).Render() })
	run("tab5", func() string { return experiments.RunExploration(opts).Render() })
	run("fig9", func() string {
		c, _ := experiments.AppCaseByName("social-network")
		return rendered(experiments.RunAccuracy(opts, c, []string{
			topology.UploadPost, topology.UpdateTimeline,
			topology.ObjectDetect, topology.SentimentAnalysis,
		}))
	})
	run("fig10", func() string {
		c, _ := experiments.AppCaseByName("video-pipeline")
		return rendered(experiments.RunAccuracy(opts, c, []string{
			topology.HighPriority, topology.LowPriority,
		}))
	})
	run("fig11", func() string { return rendered(experiments.RunComparison(opts, appFilter, sysFilter)) })
	run("fig13", func() string { return rendered(experiments.RunDiurnal(opts)) })
	run("tab6", func() string { return rendered(experiments.RunControlPlane(opts)) })
	run("fig14", func() string { return rendered(experiments.RunAdaptation(opts)) })
	run("figf1", func() string { return rendered(experiments.RunResilience(opts)) })
	run("figr1", func() string { return rendered(experiments.RunRegionFailover(opts)) })
	run("figr2", func() string { return rendered(experiments.RunFollowTheSun(opts)) })
	run("figc1", func() string {
		r := experiments.RunCorpus(opts, experiments.CorpusParams{N: *corpusN, Systems: sysFilter})
		if *corpusJSON != "" {
			data, err := r.JSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*corpusJSON, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *corpusJSON)
		}
		return r.Render()
	})
	run("figs1", func() string {
		r := experiments.RunScaling(opts, experiments.ScalingParams{Nodes: nodeSweep, Tenants: tenantSweep})
		if *figs1JSON != "" {
			data, err := r.JSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*figs1JSON, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *figs1JSON)
		}
		return r.Render()
	})
	run("ablation", func() string { return rendered(experiments.RunAblation(opts)) })

	// Experiments themselves are independent jobs: fan them over the same
	// bounded pool (single-deployment studies like fig13 then overlap with
	// the grids), but buffer their tables and emit everything in the
	// canonical order above, so output is identical at any parallelism.
	texts := make([]string, len(jobs))
	experiments.ForEach(opts, len(jobs), func(i int) {
		fmt.Fprintf(os.Stderr, "== %s ==\n", jobs[i].name)
		texts[i] = jobs[i].fn()
	})
	for i, j := range jobs {
		path := filepath.Join(*out, j.name+".txt")
		if err := os.WriteFile(path, []byte(texts[i]), 0o644); err != nil {
			fatal(err)
		}
		fmt.Print(texts[i])
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}

// parseInts parses a comma-separated list of positive counts; empty input
// returns nil (the experiment's default sweep). Each element must be a whole
// integer: "8x" is an error, not 8.
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad count %q in %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ursa-bench:", err)
	os.Exit(1)
}
