// Command e2e is the end-to-end benchmark of Ursa-managed runs: four
// scenarios, each a whole managed deployment (engine, workload, services,
// telemetry, Ursa's decisions and placement), timed end to end with tracing
// off and split by layer in a separate traced run.
//
// Run it from the repository root (bench/e2e is its own module):
//
//	bash bench/e2e/run.sh [-workloads a,b] [-seed N] [-runs N] [-seconds S] [-trace DIR] [-out FILE]
//	bash bench/e2e/run.sh -compare old.json new.json
//
// Each run executes in a child process re-executed from this binary, because
// the exploration caches behind experiments.Options.UrsaProfiles are
// process-global: a second run in one process would skip its setup. The last
// line of standard output is a JSON summary; the exit status is 0 only when
// every check passed. README.md defines the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultTraceDir is where "-trace 1" writes profiles and spans.
const defaultTraceDir = ".bench_build/e2e-trace"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var all []string
	for _, sc := range scenarios {
		all = append(all, sc.name)
	}
	names := fs.String("workloads", strings.Join(all, ","), "comma-separated workloads to run")
	fs.StringVar(names, "workload", strings.Join(all, ","), "same as -workloads")
	seed := fs.Int64("seed", 1, "workload seed")
	runs := fs.Int("runs", 1, "untraced runs per workload")
	seconds := fs.Float64("seconds", 0, "after the runs, add rounds of setup-only runs while the next round is expected to end within this many seconds of the first run")
	trace := fs.String("trace", "", `directory for a traced run per workload ("1" means `+defaultTraceDir+`, "0" or empty means none)`)
	out := fs.String("out", "", "write every run to this results JSON file")
	compare := fs.Bool("compare", false, "compare two results files given as arguments: old.json new.json (FILE#N picks one set)")
	child := fs.Bool("child", false, "run one workload in this process and print its result as JSON")
	setupOnly := fs.Bool("setup-only", false, "with -child, stop after setup")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: e2e -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return 2
	}
	var sel []scenario
	for _, name := range strings.Split(*names, ",") {
		sc, ok := scenarioByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q (have %s)\n", name, strings.Join(all, ", "))
			return 2
		}
		sel = append(sel, sc)
	}
	traceDir := *trace
	switch traceDir {
	case "0":
		traceDir = ""
	case "1":
		traceDir = defaultTraceDir
	}
	if *child {
		if len(sel) != 1 {
			fmt.Fprintln(stderr, "-child runs exactly one workload")
			return 2
		}
		res := runScenario(sel[0], *seed, runConfig{traceDir: traceDir, setupOnly: *setupOnly, log: stderr})
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *runs < 1 {
		fmt.Fprintln(stderr, "-runs must be at least 1")
		return 2
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Runs go round-robin over the workloads, so a slow spell of the host
	// spreads over all of them instead of landing on one workload's runs.
	set := resultSet{Env: currentEnv(*seed, args)}
	start := time.Now()
	setupTime := map[string]time.Duration{}
	healthy := true
	round := func(setupOnly bool) {
		for _, sc := range sel {
			t0 := time.Now()
			res := runChild(exe, sc.name, *seed, "", setupOnly, stderr)
			set.Runs = append(set.Runs, res)
			setupTime[sc.name] = time.Since(t0)
			if !setupOnly {
				setupTime[sc.name] = time.Duration(res.Metrics["setup_s"] * float64(time.Second))
			}
			healthy = healthy && len(res.Failures) == 0
		}
	}
	for i := 0; i < *runs; i++ {
		round(false)
	}
	// Setup is measured several times for its median: exploration
	// dominates it and runs once per process.
	budget := time.Duration(*seconds * float64(time.Second))
	for healthy {
		var next time.Duration
		for _, d := range setupTime {
			next += d
		}
		if time.Since(start)+next > budget {
			break
		}
		round(true)
	}
	if traceDir != "" {
		for _, sc := range sel {
			set.Runs = append(set.Runs, runChild(exe, sc.name, *seed, traceDir, false, stderr))
		}
	}
	sums := summarize(set.Runs)
	for _, s := range sums {
		s.print(stdout)
	}
	if *out != "" {
		if err := writeResults(*out, resultsFile{Sets: []resultSet{set}}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line := summaryLine(sums, traceDir != "")
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	if !line.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and returns its result. A
// child that crashes or prints no result is a failed run.
func runChild(exe, workload string, seed int64, traceDir string, setupOnly bool, stderr io.Writer) runResult {
	args := []string{"-child", "-workloads", workload, "-seed", fmt.Sprint(seed)}
	if traceDir != "" {
		args = append(args, "-trace", traceDir)
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	res := runResult{Workload: workload, Seed: seed, Traced: traceDir != "", SetupOnly: setupOnly}
	if err == nil {
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		err = json.Unmarshal(lines[len(lines)-1], &res)
	}
	if err != nil {
		res.failf("child run: %v", err)
	}
	if len(res.Failures) > 0 {
		if res.Metrics == nil {
			res.Metrics = map[string]float64{}
		}
		res.Metrics["failed_jobs_pct"] = 100 // a failed run counts as losing every job
	}
	kind := "untraced"
	switch {
	case res.Traced:
		kind = "traced"
	case res.SetupOnly:
		kind = "setup-only"
	}
	fmt.Fprintf(stderr, "%s %s run: setup %.2f s, run %.2f s, digest %.12s, %d failed checks\n",
		workload, kind, res.Metrics["setup_s"], res.Metrics["run_s"], res.Digest, len(res.Failures))
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "  FAIL %s\n", f)
	}
	return res
}

// env records where and how a set of runs was taken.
type env struct {
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Started    string   `json:"started"`
	Args       []string `json:"args"`
}

func currentEnv(seed int64, args []string) env {
	return env{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Seed:       seed,
		Started:    time.Now().UTC().Format(time.RFC3339),
		Args:       args,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, as the go command
// stamps it; "unknown" when built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// resultSet is one invocation's runs; a results file holds one or more.
type resultSet struct {
	Env  env         `json:"env"`
	Runs []runResult `json:"runs"`
}

type resultsFile struct {
	Sets []resultSet `json:"sets"`
}

func writeResults(path string, f resultsFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// workloadSummary gathers one workload's runs: the untraced ones give the
// end-to-end and simulated metrics (setup-only ones just setup_s), the
// traced one the per-layer metrics.
type workloadSummary struct {
	workload string
	seed     int64
	untraced []runResult
	traced   *runResult
	failures []string
}

// summarize groups runs by workload, in scenario order, checks that every
// run of a workload produced the same simulated digest, and derives the
// tracing overhead.
func summarize(runs []runResult) []*workloadSummary {
	var out []*workloadSummary
	for _, sc := range scenarios {
		s := &workloadSummary{workload: sc.name}
		digests := map[string]bool{}
		for i := range runs {
			r := &runs[i]
			if r.Workload != sc.name {
				continue
			}
			s.seed = r.Seed
			if r.Traced {
				s.traced = r
			} else {
				s.untraced = append(s.untraced, *r)
			}
			s.failures = append(s.failures, r.Failures...)
			if !r.SetupOnly {
				digests[r.Digest] = true
			}
		}
		if s.traced == nil && len(s.untraced) == 0 {
			continue
		}
		if len(digests) > 1 {
			s.failures = append(s.failures, fmt.Sprintf("simulated digest differs between runs of one seed: %v", sortedKeys(digests)))
		}
		if base := s.values("run_s"); s.traced != nil && len(base) > 0 {
			if t, ok := s.traced.Metrics["run_s"]; ok {
				s.traced.Metrics["bench.trace_overhead_pct"] = 100 * (t/median(base) - 1)
			}
		}
		out = append(out, s)
	}
	return out
}

// value is a metric's median over the untraced runs that measure it, or
// else the traced run's value.
func (s *workloadSummary) value(metric string) (float64, bool) {
	if v := s.values(metric); len(v) > 0 {
		return median(v), true
	}
	if s.traced == nil {
		return 0, false
	}
	v, ok := s.traced.Metrics[metric]
	return v, ok
}

// values lists a metric over the untraced runs that reported it.
func (s *workloadSummary) values(metric string) []float64 {
	var v []float64
	for _, r := range s.untraced {
		if x, ok := r.Metrics[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

func (s *workloadSummary) print(w io.Writer) {
	digest := ""
	if len(s.untraced) > 0 {
		digest = s.untraced[0].Digest
	} else if s.traced != nil {
		digest = s.traced.Digest
	}
	fmt.Fprintf(w, "\n%s  seed %d  %d untraced run(s)  digest %.16s\n", s.workload, s.seed, len(s.untraced), digest)
	for _, kind := range []metricKind{endToEnd, simulated} {
		for _, d := range metricDefs {
			v := s.values(d.name)
			if d.kind != kind || len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			bound := "must not change"
			if kind == endToEnd {
				bound = fmt.Sprintf("bound %.0f%%", 100*d.bound)
			}
			fmt.Fprintf(w, "  %-28s %14.4f %-6s [%.4f %.4f]  %s is better, %s\n",
				d.name, q2, d.unit, q1, q3, d.better, bound)
		}
	}
	fmt.Fprintln(w, "  per layer (untraced median, else traced run):")
	for _, d := range metricDefs {
		if v, ok := s.value(d.name); ok && d.kind == perLayer {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	for _, f := range s.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// summaryLine is the final output line: the listed end-to-end medians, or
// with tracing the listed per-layer metrics. Metric names carry a
// "workload/" prefix when more than one workload ran.
func summaryLine(sums []*workloadSummary, traced bool) summary {
	line := summary{Correct: len(sums) > 0, Metrics: map[string]lineMetric{}}
	for _, s := range sums {
		line.Attempted += len(s.untraced)
		if s.traced != nil {
			line.Attempted++
		}
		for _, r := range s.untraced {
			if len(r.Failures) > 0 {
				line.Failed++
			}
		}
		if s.traced != nil && len(s.traced.Failures) > 0 {
			line.Failed++
		}
		if len(s.failures) > 0 {
			line.Correct = false
		}
		for _, d := range metricDefs {
			if !d.listed || (d.kind == perLayer) != traced {
				continue
			}
			v, ok := s.value(d.name)
			if !ok {
				line.Correct = false
				continue
			}
			key := d.name
			if len(sums) > 1 {
				key = s.workload + "/" + d.name
			}
			line.Metrics[key] = lineMetric{Value: v, Unit: d.unit}
		}
	}
	return line
}
