package main

import (
	"bytes"
	"io"
	"os"
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
