package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"ursa/internal/sim"
)

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json and metricDefs in step:
// the same workloads, and exactly the listed metrics with equal units,
// directions and bounds.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(scenarios))
	}
	for i, w := range b.Workloads {
		if w.Name != scenarios[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, scenarios[i].name)
		}
	}
	check := func(list []benchmarkMetric, kind metricKind) {
		seen := map[string]bool{}
		for _, m := range list {
			seen[m.Name] = true
			d, ok := metricByName(m.Name)
			if !ok || d.kind != kind || !d.listed {
				t.Errorf("%s: not a listed metric of its kind", m.Name)
				continue
			}
			if m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s: BENCHMARK.json says %s/%s, metricDefs %s/%s", m.Name, m.Unit, m.Better, d.unit, d.better)
			}
			if kind == endToEnd && (m.Bound == nil || *m.Bound != d.bound) {
				t.Errorf("%s: bound differs from metricDefs' %v", m.Name, d.bound)
			}
		}
		for _, d := range metricDefs {
			if d.kind == kind && d.listed && !seen[d.name] {
				t.Errorf("%s is listed in metricDefs but not in BENCHMARK.json", d.name)
			}
		}
	}
	check(b.EndToEnd, endToEnd)
	check(b.PerLayer, perLayer)
}

// TestSmokeRun runs social-10x for one measured minute, untraced and then
// traced: both must pass every check with the same simulated digest, and
// together emit every metric BENCHMARK.json names.
func TestSmokeRun(t *testing.T) {
	b := readBenchmarkFile(t)
	sc, _ := scenarioByName("social-10x")
	cfg := runConfig{dur: sim.Minute, log: io.Discard}
	plain := runScenario(sc, 1, cfg)
	cfg.traceDir = t.TempDir()
	traced := runScenario(sc, 1, cfg)
	for _, r := range []runResult{plain, traced} {
		if len(r.Failures) > 0 {
			t.Fatalf("traced=%v run failed: %v", r.Traced, r.Failures)
		}
	}
	if plain.Digest != traced.Digest {
		t.Errorf("traced digest %s differs from untraced %s", traced.Digest, plain.Digest)
	}
	sums := summarize([]runResult{plain, traced})
	for _, c := range []struct {
		list   []benchmarkMetric
		traced bool
	}{{b.EndToEnd, false}, {b.PerLayer, true}} {
		line := summaryLine(sums, c.traced)
		if !line.Correct {
			t.Errorf("summary line (traced=%v) not correct", c.traced)
		}
		for _, m := range c.list {
			if _, ok := line.Metrics[m.Name]; !ok {
				t.Errorf("%s missing from the summary line (traced=%v)", m.Name, c.traced)
			}
		}
	}
}
