// ursa-sim runs one benchmark application under one resource manager and
// one load pattern, then prints a per-class SLA and resource report.
//
// Usage:
//
//	ursa-sim -app social-network -system ursa -load dynamic -minutes 30
//	ursa-sim -app video-pipeline -system auto-a -load constant
//	ursa-sim -topology examples/specs/two-tier.json -system ursa
//	ursa-sim -dump-topology media-service > my-app.yaml
//	ursa-sim -validate examples/specs/*.yaml examples/specs/*.json
//	ursa-sim -app social-network -system ursa -resilience -fail-node node-7 -fail-at 10 -fail-for 5
//	ursa-sim -app social-network -system ursa -regions -resilience -fail-region eu-west
//	ursa-sim -app social-network -system none -minutes 10 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Systems: ursa, sinan, firm, auto-a, auto-b, none.
//
// Topologies as data: -topology runs an application authored as a declarative
// spec file (YAML or JSON — the schema the built-in apps themselves use, see
// examples/specs/ and DESIGN.md §4g); -dump-topology prints any built-in app
// (or a generated corpus-s<seed>-<n> member) in that same canonical form, so
// the fastest way to author a variant is to dump a built-in and edit it.
// -validate type-checks spec files without running anything.
//
// Profiling: -cpuprofile / -memprofile write runtime/pprof profiles of the
// whole run (inspect with `go tool pprof`), so hot-path regressions are
// diagnosable without editing code.
//
// Fault injection: -fail-node crashes a node mid-run (the app is then bound
// to the paper's 8-node testbed so placements are real); -resilience arms
// client-side RPC timeouts and retries — required for runs where replicas
// can die, or callers of crashed replicas hang forever, exactly like an
// unprotected real client.
//
// Geo-regions: -regions deploys on the app's region topology (a spec file's
// regions: section, or the Fig.R1 three-region layout for the built-in
// social-network): replicas pin to their home region, cross-region RPC pays
// WAN latency, and -spill controls overflow placement. -fail-region fails
// every node of a region mid-run (timing via -fail-at/-fail-for).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"ursa/internal/cluster"
	"ursa/internal/experiments"
	"ursa/internal/metrics"
	"ursa/internal/region"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/spec"
	"ursa/internal/topology"
	"ursa/internal/trace"
	"ursa/internal/workload"
)

// options holds one invocation's parsed flags.
type options struct {
	appName, system, load, topoFile, dumpTopo             string
	failNode, failRegion, telemetry, traceOut, metricsOut string
	cpuProfile, memProfile                                string
	minutes, parallel, retention, traceSample             int
	seed                                                  int64
	rpsMult, scale, failAt, failFor, sketchAlpha          float64
	quiet, validate, resilience, useRegions, spill        bool
	args                                                  []string
}

// parseFlags parses the command line into options.
func parseFlags(args []string) *options {
	o := &options{}
	fs := flag.NewFlagSet("ursa-sim", flag.ExitOnError)
	fs.StringVar(&o.appName, "app", "social-network", "application: social-network|vanilla-social-network|media-service|video-pipeline")
	fs.StringVar(&o.system, "system", "ursa", "manager: ursa|sinan|firm|auto-a|auto-b|none")
	fs.StringVar(&o.load, "load", "constant", "load pattern: constant|diurnal|burst")
	fs.IntVar(&o.minutes, "minutes", 30, "deployment duration (simulated minutes)")
	fs.Float64Var(&o.rpsMult, "rps", 1.0, "multiplier on the app's nominal RPS")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.Float64Var(&o.scale, "scale", 0.5, "training/exploration scale for managers that need it")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool size for harness-level preparation (0 = GOMAXPROCS, 1 = sequential)")
	fs.BoolVar(&o.quiet, "q", false, "suppress progress logging")
	fs.StringVar(&o.topoFile, "topology", "", "load an application from a declarative spec file (.yaml or .json, see examples/specs/); overrides -app")
	fs.StringVar(&o.dumpTopo, "dump-topology", "", "print the canonical spec of a built-in app or corpus-s<seed>-<n> member, then exit")
	fs.BoolVar(&o.validate, "validate", false, "parse, validate and compile the spec files given as arguments, then exit (non-zero on error)")

	fs.StringVar(&o.failNode, "fail-node", "", "crash this node mid-run (e.g. node-7); binds the app to the paper testbed cluster")
	fs.Float64Var(&o.failAt, "fail-at", 10, "minutes after warm-up at which the node (or region) fails")
	fs.Float64Var(&o.failFor, "fail-for", 5, "minutes until the failed node (or region) recovers (0 = never)")
	fs.BoolVar(&o.resilience, "resilience", false, "enable client-side RPC timeouts and retries")

	fs.BoolVar(&o.useRegions, "regions", false, "deploy on the app's geo-region topology: the spec's regions: section, or the Fig.R1 layout for social-network")
	fs.BoolVar(&o.spill, "spill", true, "with -regions, let placement overflow into the nearest foreign region when home is capacity-short")
	fs.StringVar(&o.failRegion, "fail-region", "", "with -regions, fail every node of this region mid-run (timing via -fail-at/-fail-for)")

	fs.StringVar(&o.telemetry, "telemetry", "exact", "latency collectors: exact (raw samples) | sketch (bounded-error quantile sketches, flat memory)")
	fs.Float64Var(&o.sketchAlpha, "sketch-alpha", 0.01, "relative-error bound for -telemetry sketch")
	fs.IntVar(&o.retention, "retention", 0, "trim telemetry windows older than this many minutes (0 = keep everything)")
	fs.StringVar(&o.traceOut, "trace-out", "", "stream sampled request traces to this file as OTLP-style JSONL spans")
	fs.IntVar(&o.traceSample, "trace-sample", 20, "with -trace-out, trace one of every N jobs")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write retained per-window latency/arrival metrics to this file as OTLP-style JSONL summary points")

	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	fs.Parse(args) // ExitOnError: never returns an error
	o.args = fs.Args()
	return o
}

func main() {
	o := parseFlags(os.Args[1:])
	if o.validate {
		runValidate(o.args)
	}
	if o.dumpTopo != "" {
		data, err := dumpTopology(o.dumpTopo)
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(data)
		os.Exit(0)
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatalf("closing %s: %v", o.cpuProfile, err)
			}
		}()
	}
	defer func() {
		if o.memProfile == "" {
			return
		}
		f, err := os.Create(o.memProfile)
		if err != nil {
			fatalf("%v", err)
		}
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("writing heap profile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing %s: %v", o.memProfile, err)
		}
	}()

	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fatalf("%v", err)
	}
}

// appCase resolves the application the flags select, with the region
// topology its spec file declares (empty for the built-in apps).
func (o *options) appCase() (experiments.AppCase, region.Topology, error) {
	var none region.Topology
	switch {
	case o.topoFile != "":
		data, err := os.ReadFile(o.topoFile)
		if err != nil {
			return experiments.AppCase{}, none, err
		}
		f, err := spec.Parse(filepath.Base(o.topoFile), data)
		if err != nil {
			return experiments.AppCase{}, none, err
		}
		compiled, err := spec.Build(f)
		if err != nil {
			return experiments.AppCase{}, none, err
		}
		return experiments.AppCase{Name: compiled.Spec.Name, Spec: compiled.Spec,
			Mix: compiled.Mix, TotalRPS: compiled.Rate}, compiled.Regions, nil
	}
	c, ok := experiments.AppCaseByName(o.appName)
	if !ok {
		return experiments.AppCase{}, none, fmt.Errorf("unknown app %q", o.appName)
	}
	return c, none, nil
}

// scenario maps the flags onto the one run they describe, returning the
// app's name for the report. Every input is checked before the manager is
// prepared, so a bad flag fails fast instead of after exploration.
func (o *options) scenario() (string, experiments.Scenario, error) {
	switch {
	case o.minutes <= 0:
		return "", experiments.Scenario{}, fmt.Errorf("-minutes %d: want a positive duration", o.minutes)
	case !(o.rpsMult > 0):
		return "", experiments.Scenario{}, fmt.Errorf("-rps %v: want a positive multiplier", o.rpsMult)
	case o.retention < 0:
		return "", experiments.Scenario{}, fmt.Errorf("-retention %d: want 0 (keep everything) or a positive number of minutes", o.retention)
	case o.telemetry == "sketch" && !(o.sketchAlpha > 0 && o.sketchAlpha < 1):
		return "", experiments.Scenario{}, fmt.Errorf("-sketch-alpha %v: want a relative error in (0,1)", o.sketchAlpha)
	}
	c, regions, err := o.appCase()
	if err != nil {
		return "", experiments.Scenario{}, err
	}
	c.TotalRPS *= o.rpsMult
	warm := 2 * sim.Minute
	dur := sim.Time(o.minutes) * sim.Minute
	s := experiments.Scenario{Seed: o.seed, Spec: c.Spec, Mix: c.Mix, Warm: warm, Duration: dur}

	switch o.load {
	case "constant":
		s.Pattern = workload.Constant{Value: c.TotalRPS}
	case "diurnal":
		s.Pattern = workload.Diurnal{Base: c.TotalRPS * 0.5, Peak: c.TotalRPS * 1.5, Period: dur}
	case "burst":
		s.Pattern = workload.Modulate{
			Base: workload.Constant{Value: c.TotalRPS}, Factor: 2,
			Start: dur * 2 / 5, Len: dur / 5,
		}
	default:
		return "", s, fmt.Errorf("unknown load %q", o.load)
	}

	s.Telemetry.Retention = sim.Time(o.retention) * sim.Minute
	switch o.telemetry {
	case "exact":
	case "sketch":
		s.Telemetry.SketchAlpha = o.sketchAlpha
	default:
		return "", s, fmt.Errorf("unknown telemetry mode %q (want exact|sketch)", o.telemetry)
	}
	if o.resilience {
		s.Resilience = &services.ResiliencePolicy{}
	}

	at := warm + sim.Time(o.failAt*float64(sim.Minute))
	failFor := sim.Time(o.failFor * float64(sim.Minute))
	switch {
	case o.useRegions:
		if o.failNode != "" {
			return "", s, fmt.Errorf("-regions is incompatible with -fail-node (use -fail-region)")
		}
		s.Regions = regions
		if s.Regions.Empty() && c.Name == "social-network" {
			// The built-in app has no regions: section; use the Fig.R1 layout.
			s.Regions = experiments.SocialNetworkRegions()
		}
		if s.Regions.Empty() {
			return "", s, fmt.Errorf("-regions: %s declares no regions (add a regions: section to the spec)", c.Name)
		}
		s.Regions.Spill = o.spill
		if o.failRegion != "" {
			s.Fault = experiments.Fault{Region: o.failRegion, At: at, For: failFor}
		}
	case o.failRegion != "":
		return "", s, fmt.Errorf("-fail-region needs -regions")
	case o.failNode != "":
		// Node faults need real placements to evict: bind to the testbed.
		s.Cluster = cluster.PaperTestbed()
		s.Fault = experiments.Fault{Node: o.failNode, At: at, For: failFor}
	}
	if err := s.Validate(); err != nil {
		return "", s, err
	}

	if o.system != "none" {
		opts := experiments.Options{Seed: o.seed, Scale: o.scale, Parallelism: o.parallel}
		if !o.quiet {
			opts.Log = os.Stderr
		}
		if s.Manager, err = opts.NewManager(c, o.system); err != nil {
			return "", s, err
		}
	}
	return c.Name, s, nil
}

// run executes the invocation's scenario, writes the optional trace and
// metrics exports, and prints the report to stdout.
func run(o *options, stdout, stderr io.Writer) error {
	name, s, err := o.scenario()
	if err != nil {
		return err
	}
	var spanFile *os.File
	var spanW *trace.SpanWriter
	if o.traceOut != "" {
		if spanFile, err = os.Create(o.traceOut); err != nil {
			return err
		}
		defer spanFile.Close()
		s.Tracer = trace.NewTracer(o.traceSample, 1) // stream, don't retain
		spanW = trace.NewSpanWriter(spanFile)
		s.Tracer.Exporter = spanW.ExportTrace
	}
	if s.Resilience == nil && s.Fault != (experiments.Fault{}) {
		fmt.Fprintln(stderr, "ursa-sim: warning: node/region failure without -resilience — callers of crashed replicas will hang")
	}
	r, err := experiments.Run(s)
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	if spanW != nil {
		// Close out jobs still in flight (or abandoned by faults) as
		// incomplete traces so the export captures them too.
		s.Tracer.FlushOpen(r.App.Eng.Now())
		if err := spanW.Flush(); err != nil {
			return fmt.Errorf("writing %s: %w", o.traceOut, err)
		}
		if err := spanFile.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", o.traceOut, err)
		}
	}
	if o.metricsOut != "" {
		if err := writeMetrics(o.metricsOut, r.App); err != nil {
			return fmt.Errorf("writing %s: %w", o.metricsOut, err)
		}
	}
	report(stdout, name, o, s, r)
	return nil
}

// report prints the per-class SLA and resource report of one run.
func report(w io.Writer, name string, o *options, s experiments.Scenario, r experiments.Result) {
	fmt.Fprintf(w, "\n%s under %s (%s load, %d min):\n\n", name, o.system, o.load, o.minutes)
	fmt.Fprintf(w, "%-22s %10s %12s %10s\n", "class", "SLA(ms)", "pXX(ms)", "violated")
	for _, row := range r.Classes {
		fmt.Fprintf(w, "%-22s %10.0f %12.1f %9.1f%%\n", row.Class, row.SLAMillis, row.Latency,
			100*float64(row.Violated)/float64(max(1, row.Windows)))
	}
	fmt.Fprintf(w, "\noverall SLA violation rate: %.1f%%\n", 100*r.ViolationRate)
	fmt.Fprintf(w, "average CPU allocation:     %.1f cores\n", r.AvgCPUs)
	if s.Manager != nil {
		fmt.Fprintf(w, "avg decision latency:       %.3f ms\n", r.DecisionMs)
	}
	app := r.App
	fmt.Fprintf(w, "jobs injected/completed:    %d/%d\n", app.InjectedJobs, app.CompletedJobs())
	if s.Resilience != nil || s.Fault != (experiments.Fault{}) {
		fmt.Fprintf(w, "jobs failed:                %d (availability %.3f%%)\n", app.FailedJobs(), r.Availability*100)
	}
	if s.Resilience != nil {
		fmt.Fprintf(w, "rpc errors/retries:         %.0f/%.0f\n", r.Errors, r.Retries)
	}
	if s.Fault.Node != "" {
		fmt.Fprintf(w, "replicas evicted:           %d (unschedulable events: %d)\n", r.Evicted, r.Unschedulable)
		fmt.Fprintln(w, "\nfault log:")
		for _, rec := range r.FaultLog {
			fmt.Fprintf(w, "  %-12v %s\n", rec.At, rec.Detail)
		}
	}
	if !s.Regions.Empty() {
		fmt.Fprintf(w, "replicas spilled:           %d (WAN hops: %d)\n", r.Spilled, r.WANHops)
		if s.Fault.Region != "" {
			fmt.Fprintf(w, "replicas evicted:           %d (unschedulable events: %d)\n", r.Evicted, r.Unschedulable)
		}
	}
}

// writeMetrics dumps every retained telemetry window as OTLP-style JSONL
// summary points: end-to-end latency per class, per-service response time,
// and per-service arrival counts.
func writeMetrics(path string, app *services.App) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	qs := []float64{50, 90, 99}
	var pts []metrics.MetricPoint
	for _, class := range app.E2E.Classes() {
		pts = append(pts, metrics.WindowPoints("ursa.e2e.latency",
			[]metrics.KV{{Key: "class", Value: class}}, app.E2E.Class(class), qs)...)
	}
	for _, name := range app.ServiceNames() {
		svc := app.Service(name)
		attrs := []metrics.KV{{Key: "service", Value: name}}
		pts = append(pts, metrics.WindowPoints("ursa.service.resptime", attrs, svc.RespTime.Merged(), qs)...)
		pts = append(pts, metrics.CounterPoints("ursa.service.arrivals", attrs, svc.ArrivalsAll)...)
	}
	if err := metrics.WritePoints(f, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runValidate parses, validates and compiles each spec file, reporting every
// failure before exiting; the exit status is non-zero if any file is invalid.
func runValidate(files []string) {
	if len(files) == 0 {
		fatalf("-validate: no spec files given")
	}
	bad := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err == nil {
			var f *spec.File
			if f, err = spec.Parse(filepath.Base(path), data); err == nil {
				_, err = spec.Build(f)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			bad++
			continue
		}
		fmt.Printf("ok %s\n", path)
	}
	if bad > 0 {
		fatalf("%d of %d spec files invalid", bad, len(files))
	}
	os.Exit(0)
}

// dumpTopology renders the canonical spec of a built-in application or a
// generated corpus member (name form corpus-s<seed>-<index>, as reported by
// the figc1 experiment). The whole name must match: "corpus-s1-2junk" is an
// unknown topology, not corpus member 2.
func dumpTopology(name string) ([]byte, error) {
	if app, ok := topology.AppByName(name); ok {
		return spec.Dump(app.Spec, app.Mix, app.RPS)
	}
	seed, idx, ok := parseCorpusName(name)
	if !ok {
		return nil, fmt.Errorf("unknown topology %q (want a built-in app or corpus-s<seed>-<n>)", name)
	}
	c, _, err := experiments.GenerateCorpusCase(seed, idx)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	return spec.Dump(c.Spec, c.Mix, c.TotalRPS)
}

// parseCorpusName splits corpus-s<seed>-<index> into its two integers.
func parseCorpusName(name string) (seed int64, idx int, ok bool) {
	rest, found := strings.CutPrefix(name, "corpus-s")
	k := strings.LastIndex(rest, "-")
	if !found || k < 0 {
		return 0, 0, false
	}
	seed, err1 := strconv.ParseInt(rest[:k], 10, 64)
	idx, err2 := strconv.Atoi(rest[k+1:])
	return seed, idx, err1 == nil && err2 == nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ursa-sim: "+format+"\n", args...)
	os.Exit(1)
}
