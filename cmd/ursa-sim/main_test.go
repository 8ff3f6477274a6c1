package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioInputErrors asserts every bad flag combination is rejected by
// the flags → Scenario mapper with an error, before any manager is prepared.
func TestScenarioInputErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"regions with node fault", []string{"-regions", "-fail-node", "node-7"}, "incompatible with -fail-node"},
		{"unknown region", []string{"-regions", "-fail-region", "mars"}, `unknown region "mars"`},
		{"region fault without regions", []string{"-fail-region", "eu-west"}, "-fail-region needs -regions"},
		{"unknown node", []string{"-fail-node", "node-99"}, `unknown node "node-99"`},
		{"unknown system", []string{"-system", "k8s"}, `unknown system "k8s"`},
		{"unknown load", []string{"-load", "spiky"}, `unknown load "spiky"`},
		{"unknown telemetry", []string{"-telemetry", "lossy"}, `unknown telemetry mode "lossy"`},
		{"unknown app", []string{"-app", "shop"}, `unknown app "shop"`},
		{"built-in app without regions", []string{"-app", "media-service", "-regions"}, "media-service declares no regions"},
		{"spec file without regions", []string{"-topology", "../../examples/specs/two-tier.json", "-regions"}, "declares no regions"},
		{"missing spec file", []string{"-topology", "testdata/missing.yaml"}, "missing.yaml"},
		{"sketch alpha above one", []string{"-telemetry", "sketch", "-sketch-alpha", "2"}, "-sketch-alpha 2"},
		{"sketch alpha zero", []string{"-telemetry", "sketch", "-sketch-alpha", "0"}, "-sketch-alpha 0"},
		{"zero minutes", []string{"-minutes", "0"}, "-minutes 0"},
		{"negative minutes", []string{"-minutes", "-3"}, "-minutes -3"},
		{"negative rps", []string{"-rps", "-1"}, "-rps -1"},
		{"zero rps", []string{"-rps", "0"}, "-rps 0"},
		{"negative retention", []string{"-retention", "-1"}, "-retention -1"},
		{"infeasible spec SLA", []string{"-topology", "testdata/two_tier_1ms.json", "-system", "ursa", "-scale", "0.25"}, "no feasible LPR point"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parseFlags(append(tc.args, "-q")).scenario()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("scenario() error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestDumpTopologyNames checks -dump-topology's name resolution: built-in
// apps and whole corpus-s<seed>-<n> names dump, anything else is an error.
func TestDumpTopologyNames(t *testing.T) {
	for _, name := range []string{"media-service", "corpus-s1-2", "corpus-s1-002"} {
		if data, err := dumpTopology(name); err != nil || len(data) == 0 {
			t.Errorf("dumpTopology(%q) = %d bytes, %v", name, len(data), err)
		}
	}
	for _, name := range []string{"corpus-s1-2junk", "corpus-s1x-2", "corpus-s1", "corpus-s-2", "shop"} {
		if _, err := dumpTopology(name); err == nil || !strings.Contains(err.Error(), "unknown topology") {
			t.Errorf("dumpTopology(%q) error = %v, want unknown topology", name, err)
		}
	}
}

// TestReportGoldens pins ursa-sim's report byte-for-byte. The wall-clock
// decision-latency line is the only non-deterministic output and is dropped.
// The two-tier row pins the declarative JSON spec path (-topology).
func TestReportGoldens(t *testing.T) {
	social := func(extra ...string) []string {
		return append([]string{"-app", "social-network", "-system", "ursa", "-minutes", "8", "-scale", "0.25", "-q"}, extra...)
	}
	cases := []struct {
		golden string
		args   []string
	}{
		{"testdata/ursa.golden", social()},
		{"testdata/fail_node.golden", social("-fail-node", "node-7", "-resilience", "-fail-at", "2", "-fail-for", "3")},
		{"testdata/two_tier.golden", []string{"-topology", "../../examples/specs/two-tier.json", "-system", "ursa", "-minutes", "4", "-q"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(parseFlags(tc.args), &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			var kept []string
			for _, line := range strings.SplitAfter(out.String(), "\n") {
				if !strings.HasPrefix(line, "avg decision latency") {
					kept = append(kept, line)
				}
			}
			got := strings.Join(kept, "")
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("report diverged from %s\n--- got ---\n%s\n--- want ---\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestMetricsOutGoldens pins -metrics-out byte-for-byte on the multi-class
// social network, whose services each serve several request classes: one
// exact run, and one sketch run whose retention has trimmed the oldest
// windows. The per-service ursa.service.resptime points are the all-class
// merge of the per-class collectors, so these goldens hold it to the
// single all-class collector the goldens were captured from.
func TestMetricsOutGoldens(t *testing.T) {
	social := func(extra ...string) []string {
		return append([]string{"-app", "social-network", "-system", "auto-a", "-scale", "0.25", "-q"}, extra...)
	}
	cases := []struct {
		golden string
		args   []string
	}{
		{"testdata/metrics_exact.golden", social("-minutes", "4")},
		{"testdata/metrics_sketch.golden", social("-minutes", "6", "-telemetry", "sketch", "-retention", "4")},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "metrics.jsonl")
			if err := run(parseFlags(append(tc.args, "-metrics-out", out)), io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < min(len(gl), len(wl)); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("metrics diverged from %s at line %d\n got: %s\nwant: %s", tc.golden, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("metrics diverged from %s: %d lines, want %d", tc.golden, len(gl), len(wl))
			}
		})
	}
}
