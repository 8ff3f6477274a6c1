package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// profiler records one CPU profile per phase of a traced run and turns each
// into per-layer shares. A nil profiler does nothing.
type profiler struct {
	dir, workload string
	phase, path   string
	f             *os.File
}

func (p *profiler) start(phase string) error {
	if p == nil {
		return nil
	}
	p.phase = phase
	p.path = filepath.Join(p.dir, fmt.Sprintf("%s.%s.pprof", p.workload, phase))
	f, err := os.Create(p.path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	return nil
}

// stop ends the current phase's profile and adds its shares to m: per-layer
// self shares for the run phase, entry-point cumulative shares for setup.
func (p *profiler) stop(m map[string]float64) error {
	if p == nil || p.f == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.f.Close()
	p.f = nil
	if err != nil {
		return err
	}
	samples, err := readProfile(p.path)
	if err != nil {
		return err
	}
	if p.phase == "setup" {
		setupShares(samples, m)
	} else {
		layerShares(samples, m)
	}
	return nil
}

// readProfile lists a CPU profile's stacks with `go tool pprof -traces`,
// which ships with the toolchain.
func readProfile(path string) ([]stackSample, error) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		goCmd = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	out, err := exec.Command(goCmd, "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return parseTraces(strings.NewReader(string(out)))
}

// stackSample is one distinct stack of a profile with its sampled CPU time.
type stackSample struct {
	seconds float64
	frames  []string // innermost first
}

const tracesSeparator = "-----------+-------------------------------------------------------"

// parseTraces reads `go tool pprof -traces` output. Each stack is a block
// between separator lines; its first frame line carries the sampled value in
// a right-aligned 10-column field, and frame names start at column 13.
// Label lines ("name:  value") are skipped.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == tracesSeparator {
			cur = nil
			continue
		}
		if len(line) < 14 || line[10:13] != "   " {
			continue // header, label or blank line
		}
		name := strings.TrimSuffix(line[13:], " (inline)")
		if v := strings.TrimSpace(line[:10]); v != "" {
			sec, err := parseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			out = append(out, stackSample{seconds: sec})
			cur = &out[len(out)-1]
		}
		if cur == nil {
			return nil, fmt.Errorf("pprof traces: frame before a sample value: %q", line)
		}
		cur.frames = append(cur.frames, name)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return out, nil
}

// parseDuration reads a pprof time value such as "10ms", "1.50s" or "2hrs".
// Longer suffixes come first: "ms" also ends in "s".
func parseDuration(v string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(v, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return f * u.scale, nil
		}
	}
	return 0, fmt.Errorf("unknown time unit in %q", v)
}

// internalPackage reports the ursa/internal package a function belongs to,
// e.g. "services" for "ursa/internal/services.(*App).injectAt".
func internalPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "ursa/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// cpuLayers are the layers whose run-phase CPU share is reported; samples
// in any other ursa/internal package count as "other".
var cpuLayers = []string{"sim", "services", "workload", "metrics", "stats", "core", "cluster", "region", "runtime"}

// layerOf attributes a stack to its innermost ursa/internal package, or to
// "runtime" when no frame is in the program (GC workers, the scheduler).
func layerOf(frames []string) string {
	for _, f := range frames {
		if pkg, ok := internalPackage(f); ok {
			for _, l := range cpuLayers {
				if pkg == l {
					return l
				}
			}
			return "other"
		}
	}
	return "runtime"
}

// layerShares adds each layer's self share of the profile, in percent.
func layerShares(samples []stackSample, m map[string]float64) {
	by := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		by[layerOf(s.frames)] += s.seconds
		total += s.seconds
	}
	for _, l := range cpuLayers {
		m[l+".cpu_pct"] = 100 * by[l] / total
	}
	m["other.cpu_pct"] = 100 * by["other"] / total
}

// setupEntries are the public entry points whose cumulative share of setup
// CPU is reported.
var setupEntries = []struct {
	metric string
	match  func(frame string) bool
}{
	{"core.setup_profiling_pct", func(f string) bool { return f == "ursa/internal/core.ProfileBackpressureThreshold" }},
	{"core.setup_explore_pct", func(f string) bool { return f == "ursa/internal/core.(*Explorer).ExploreAll" }},
	{"core.setup_admit_pct", func(f string) bool {
		return f == "ursa/internal/core.(*Arbiter).Admit" || f == "ursa/internal/core.(*Manager).Run"
	}},
	{"spec.setup_pct", func(f string) bool { return strings.HasPrefix(f, "ursa/internal/spec.") }},
}

// setupShares adds, per entry point, the share of setup CPU spent with it
// on the stack, in percent.
func setupShares(samples []stackSample, m map[string]float64) {
	total := 0.0
	for _, s := range samples {
		total += s.seconds
	}
	for _, e := range setupEntries {
		in := 0.0
		for _, s := range samples {
			for _, f := range s.frames {
				if e.match(f) {
					in += s.seconds
					break
				}
			}
		}
		m[e.metric] = 100 * in / total
	}
}

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory. Spans nest: a span started
// while another is open is its child. A nil recorder records nothing.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) start(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// spanMetrics derives per-layer metrics from the spans of one name: their
// total or median duration, scaled from nanoseconds to the metric's unit.
var spanMetrics = []struct {
	metric, span string
	median       bool
	perNs        float64
}{
	{"experiments.ursa_profiles_s", "experiments.ursa_profiles", false, 1e-9},
	{"services.deploy_ms", "services.deploy", false, 1e-6},
	{"core.admit_ms", "core.admit", false, 1e-6},
	{"core.recalc_us_p50", "core.recalc", true, 1e-3},
	{"core.evict_ms", "core.evict", false, 1e-6},
	{"cluster.place_us_p50", "cluster.place", true, 1e-3},
	{"metrics.query_us_p50", "metrics.query", true, 1e-3},
}

// report adds the span-derived metrics for every span name that occurred.
func (r *recorder) report(m map[string]float64) {
	durs := map[string][]float64{}
	for _, s := range r.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	for _, sm := range spanMetrics {
		d := durs[sm.span]
		if len(d) == 0 {
			continue
		}
		v := 0.0
		if sm.median {
			v = percentile(d, 50)
		} else {
			for _, x := range d {
				v += x
			}
		}
		m[sm.metric] = v * sm.perNs
	}
	m["cluster.places"] = float64(len(durs["cluster.place"]))
}

// selfTimes sums each layer's self time — span duration minus the time its
// child spans cover — in milliseconds. A span's layer is its name up to the
// first dot.
func (r *recorder) selfTimes() map[string]float64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self[i]) / 1e6
	}
	return out
}

// write stores the spans as JSON lines and prints the self-time table to w.
func (r *recorder) write(dir, workload string, w io.Writer) error {
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := r.selfTimes()
	layers := sortedKeys(self)
	sort.SliceStable(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "%s span self time:\n", workload)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %12.1f ms\n", l, self[l])
	}
	return nil
}
