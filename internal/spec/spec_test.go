package spec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ursa/internal/services"
)

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Duration
	}{
		{"30ms", Duration{MeanMs: 30}},
		{"1.5s", Duration{MeanMs: 1500}},
		{"250us", Duration{MeanMs: 0.25}},
		{"2m", Duration{MeanMs: 120000}},
		{"30ms +/- 10ms", Duration{MeanMs: 30, DevMs: 10}},
		{"1s +/- 250ms", Duration{MeanMs: 1000, DevMs: 250}},
		{"  45ms  ", Duration{MeanMs: 45}},
	}
	for _, c := range cases {
		got, err := parseDuration(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("%q: got %+v want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "30", "ms", "fastms", "30ms +/- x", "30xs"} {
		if _, err := parseDuration(bad); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

func TestYAMLParserBasics(t *testing.T) {
	src := `
# a comment
top: 1
seq:
  - a
  -   b   # trailing comment
flow: {x: 1, y: [2, "three", {z: 'four'}]}
"quoted key": "quoted # value"
nested:
  inner:
    - k: v
      w: u
`
	n, err := parseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.get("top").scalar != "1" {
		t.Errorf("top: %q", n.get("top").scalar)
	}
	seq := n.get("seq")
	if len(seq.items) != 2 || seq.items[0].scalar != "a" || seq.items[1].scalar != "b" {
		t.Errorf("seq: %+v", seq)
	}
	flow := n.get("flow")
	y := flow.get("y")
	if len(y.items) != 3 || y.items[1].scalar != "three" || !y.items[1].quoted {
		t.Errorf("flow.y: %+v", y)
	}
	if y.items[2].get("z").scalar != "four" {
		t.Errorf("flow.y[2].z: %+v", y.items[2])
	}
	if n.get("quoted key").scalar != "quoted # value" {
		t.Errorf("quoted key: %q", n.get("quoted key").scalar)
	}
	item := n.get("nested").get("inner").items[0]
	if item.get("k").scalar != "v" || item.get("w").scalar != "u" {
		t.Errorf("nested seq item: %+v", item)
	}
}

func TestYAMLParserRejects(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"tab indent", "a: 1\n\tb: 2", "tabs are not allowed"},
		{"duplicate key", "a: 1\na: 2", `duplicate key "a"`},
		{"unterminated string", `a: "oops`, "unterminated string"},
		{"bad flow", "a: {x: 1", "expected ',' or '}'"},
		{"empty", "  \n# only comments\n", "empty document"},
	}
	for _, c := range cases {
		if _, err := parseYAML(c.src); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: got %v, want substring %q", c.name, err, c.wantSub)
		}
	}
}

// minimalDoc is a valid two-service doc the error-path table mutates.
const minimalDoc = `version: 1
app: demo
services:
  - name: frontend
    kind: rpc
    cpus: 1
    replicas: 1
    operations:
      get:
        steps:
          - compute: 5ms
          - call: backend
  - name: backend
    kind: rpc
    cpus: 1
    replicas: 1
    operations:
      get:
        steps:
          - compute: 5ms
classes:
  - name: get
    entry: frontend
    sla: {percentile: 99, latency: 100ms}
`

// TestLoaderErrorPaths pins one golden message per loader failure mode: the
// exact field path and wording are the user interface of the validator.
func TestLoaderErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			"malformed duration",
			strings.Replace(minimalDoc, "- compute: 5ms\n          - call: backend", "- compute: fastms\n          - call: backend", 1),
			`app.yaml: services.frontend.operations.get.steps[0].compute: malformed duration "fastms" (want e.g. "30ms" or "30ms +/- 10ms")`,
		},
		{
			"duration missing unit",
			strings.Replace(minimalDoc, "- compute: 5ms\n          - call: backend", "- compute: \"30\"\n          - call: backend", 1),
			`app.yaml: services.frontend.operations.get.steps[0].compute: malformed duration "30": missing unit (us|ms|s|m)`,
		},
		{
			"unknown service reference",
			strings.Replace(minimalDoc, "- call: backend", "- call: nosuch", 1),
			`app.yaml: services.frontend.operations.get.steps[1].call.service: unknown service "nosuch"`,
		},
		{
			"cyclic rpc chain",
			strings.Replace(minimalDoc, "      get:\n        steps:\n          - compute: 5ms\nclasses:",
				"      get:\n        steps:\n          - compute: 5ms\n          - call: frontend\nclasses:", 1),
			`app.yaml: services.backend.operations.get.steps[1].call: cyclic call chain: frontend/get -> backend/get -> frontend/get`,
		},
		{
			"duplicate operation names",
			strings.Replace(minimalDoc, "      get:\n        steps:\n          - compute: 5ms\nclasses:",
				"      get:\n        steps:\n          - compute: 5ms\n      get:\n        steps:\n          - compute: 5ms\nclasses:", 1),
			`app.yaml: duplicate key "get"`,
		},
		{
			"duplicate service names",
			strings.Replace(minimalDoc, "- name: backend", "- name: frontend", 1),
			`app.yaml: services[1].name: duplicate service "frontend"`,
		},
		{
			"unknown field",
			strings.Replace(minimalDoc, "    kind: rpc\n    cpus: 1\n    replicas: 1\n    operations:\n      get:\n        steps:\n          - compute: 5ms\n          - call: backend",
				"    kind: rpc\n    cpus: 1\n    replica_count: 1\n    operations:\n      get:\n        steps:\n          - compute: 5ms\n          - call: backend", 1),
			`app.yaml: services.frontend.replica_count: unknown field (known fields: name, kind, cpus, replicas, threads, daemons, max_replicas, startup_delay, region, ingress, operations)`,
		},
		{
			"service bound to unknown region",
			strings.Replace(minimalDoc, "- name: backend\n    kind: rpc",
				"- name: backend\n    kind: rpc\n    region: mars", 1),
			`app.yaml: services.backend.region: unknown region "mars"`,
		},
		{
			"wan edge to unknown region",
			strings.Replace(minimalDoc, "app: demo\n",
				"app: demo\nregions:\n  - name: us-east\n    nodes: [64]\n    wan:\n      eu-west: 80ms\n", 1),
			`app.yaml: regions.us-east.wan.eu-west: unknown region "eu-west"`,
		},
		{
			"duplicate region",
			strings.Replace(minimalDoc, "app: demo\n",
				"app: demo\nregions:\n  - name: us-east\n    nodes: [64]\n  - name: us-east\n    nodes: [32]\n", 1),
			`app.yaml: regions[1].name: duplicate region "us-east"`,
		},
		{
			"error rate out of range",
			strings.Replace(minimalDoc, "- call: backend",
				"- call: {service: backend, error_rate: 1.5}", 1),
			`app.yaml: services.frontend.operations.get.steps[1].call.error_rate: must be in [0, 1]`,
		},
		{
			"unknown class in mix",
			minimalDoc + "workload:\n  rate: 10\n  mix:\n    nosuch: 1\n",
			`app.yaml: workload.mix.nosuch: unknown class "nosuch"`,
		},
		{
			"unknown kind",
			strings.Replace(minimalDoc, "kind: rpc", "kind: cron", 1),
			`app.yaml: services.frontend.kind: unknown kind "cron" (want rpc|worker)`,
		},
		{
			"unknown step kind",
			strings.Replace(minimalDoc, "- call: backend", "- teleport: backend", 1),
			`app.yaml: services.frontend.operations.get.steps[1]: unknown step kind "teleport" (want compute|call|spawn|par)`,
		},
		{
			"unknown call mode",
			strings.Replace(minimalDoc, "- call: backend", "- call: {service: backend, mode: udp}", 1),
			`app.yaml: services.frontend.operations.get.steps[1].call.mode: unknown call mode "udp" (want nested-rpc|event-rpc|mq)`,
		},
		{
			"entry without operation",
			strings.Replace(minimalDoc, "entry: frontend", "entry: backend", 1) + "  - name: extra\n    entry: frontend\n    sla: {percentile: 99, latency: 1s}\n",
			`app.yaml: classes.extra.entry: service "frontend" has no operation "extra"`,
		},
		{
			"cv and spread together",
			strings.Replace(minimalDoc, "- compute: 5ms\n          - call: backend",
				"- compute: {duration: 5ms +/- 1ms, cv: 0.5}\n          - call: backend", 1),
			`app.yaml: services.frontend.operations.get.steps[0].compute: cv and +/- spread are mutually exclusive`,
		},
		{
			"unsupported version",
			strings.Replace(minimalDoc, "version: 1", "version: 9", 1),
			`app.yaml: version: unsupported spec version 9 (this build reads version 1)`,
		},
		{
			"derived class in mix",
			`version: 1
app: demo
services:
  - name: worker
    kind: worker
    cpus: 1
    replicas: 1
    operations:
      bg:
        steps:
          - compute: 5ms
classes:
  - name: bg
    entry: worker
    derived: true
    sla: {percentile: 99, latency: 1s}
workload:
  rate: 10
  mix:
    bg: 1
`,
			`app.yaml: workload.mix.bg: derived class "bg" cannot receive client load`,
		},
	}
	for _, c := range cases {
		_, err := Parse("app.yaml", []byte(c.doc))
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s:\n  got:  %s\n  want: %s", c.name, err, c.want)
		}
	}
}

func TestDerivedClassNeedsNoMix(t *testing.T) {
	doc := minimalDoc + `workload:
  rate: 10
  mix:
    get: 1
`
	f, err := Parse("demo.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rate != 10 || c.Mix["get"] != 1 {
		t.Fatalf("workload: %+v", c)
	}
}

func TestBuildKindDefaultsAndOverrides(t *testing.T) {
	doc := `version: 1
app: defaults
services:
  - name: api
    kind: rpc
    cpus: 2
    replicas: 3
    operations:
      get:
        steps:
          - compute: 5ms
  - name: crunch
    kind: worker
    cpus: 4
    threads: 24
    replicas: 2
    operations:
      job:
        steps:
          - compute: 30ms +/- 10ms
  - name: tuned
    kind: rpc
    cpus: 1
    replicas: 1
    threads: 2048
    daemons: 8
    ingress: {cost: 1ms, window: 16}
    operations:
      get:
        steps:
          - compute: 2ms
classes:
  - name: get
    entry: api
    sla: {percentile: 99, latency: 100ms}
  - name: job
    entry: crunch
    derived: true
    sla: {percentile: 95, latency: 2s}
`
	f, err := Parse("defaults.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	// "get" must exist on tuned too for the walker? No: entry is api; tuned is
	// unreachable but still validated structurally.
	c, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	api := c.Spec.ServiceSpecByName("api")
	if api.Threads != 4096 || api.Daemons != 64 || api.IngressCostMs != 0.2 || api.IngressWindow != 32 {
		t.Errorf("rpc defaults: %+v", api)
	}
	crunch := c.Spec.ServiceSpecByName("crunch")
	if crunch.Threads != 24 || crunch.Daemons != 16 || crunch.IngressCostMs != 0 || crunch.IngressWindow != 0 {
		t.Errorf("worker profile: %+v", crunch)
	}
	// +/- spread becomes a CV.
	comp := crunch.Handlers["job"][0].(services.Compute)
	if comp.MeanMs != 30 || comp.CV < 0.333 || comp.CV > 0.334 {
		t.Errorf("spread→cv: %+v", comp)
	}
	tuned := c.Spec.ServiceSpecByName("tuned")
	if tuned.Threads != 2048 || tuned.Daemons != 8 || tuned.IngressCostMs != 1 || tuned.IngressWindow != 16 {
		t.Errorf("overrides: %+v", tuned)
	}
	// A call without a mode is a nested RPC.
	f, err = Parse("app.yaml", []byte(minimalDoc))
	if err != nil {
		t.Fatal(err)
	}
	if c, err = Build(f); err != nil {
		t.Fatal(err)
	}
	if call := c.Spec.ServiceSpecByName("frontend").Handlers["get"][1].(services.Call); call.Mode != services.NestedRPC {
		t.Errorf("default call mode = %v, want nested-rpc", call.Mode)
	}
}

func TestTransformStepsDropsOnlyNamedSpawns(t *testing.T) {
	steps := []services.Step{
		services.Compute{MeanMs: 1},
		services.Spawn{Service: "ml", Class: "analyze"},
		services.Par{Branches: [][]services.Step{
			{services.Call{Service: "a"}, services.Spawn{Service: "ml", Class: "analyze"}},
			{services.Spawn{Service: "other", Class: "keep"}},
		}},
		services.Spawn{Service: "other", Class: "keep"},
	}
	got := DropSpawns(steps, map[string]bool{"analyze": true})
	want := []services.Step{
		services.Compute{MeanMs: 1},
		services.Par{Branches: [][]services.Step{
			{services.Call{Service: "a"}},
			{services.Spawn{Service: "other", Class: "keep"}},
		}},
		services.Spawn{Service: "other", Class: "keep"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v\nwant %#v", got, want)
	}
	// Input untouched.
	if len(steps) != 4 {
		t.Error("input mutated")
	}
	par := steps[2].(services.Par)
	if len(par.Branches[0]) != 2 {
		t.Error("input Par branch mutated")
	}
	// All-dropped list yields nil, matching handler semantics.
	if got := DropSpawns([]services.Step{services.Spawn{Service: "ml", Class: "analyze"}},
		map[string]bool{"analyze": true}); got != nil {
		t.Errorf("all-dropped: got %#v want nil", got)
	}
}

func TestRegionsRoundTrip(t *testing.T) {
	doc := `version: 1
app: geo
regions:
  - name: us-east
    nodes: [64, 64]
    wan:
      eu-west: 80ms +/- 10ms
  - name: eu-west
    nodes: [48]
services:
  - name: frontend
    kind: rpc
    cpus: 1
    replicas: 1
    region: us-east
    operations:
      get:
        steps:
          - compute: 5ms
          - call: {service: backend, error_rate: 0.02}
  - name: backend
    kind: rpc
    cpus: 1
    replicas: 1
    region: eu-west
    operations:
      get:
        steps:
          - compute: 5ms
classes:
  - name: get
    entry: frontend
    sla: {percentile: 99, latency: 100ms}
`
	f, err := Parse("geo.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	topo := c.Regions
	if len(topo.Groups) != 2 || topo.Groups[0].Name != "us-east" || len(topo.Groups[0].Capacities) != 2 {
		t.Fatalf("groups: %+v", topo.Groups)
	}
	if len(topo.Links) != 1 || topo.Links[0].LatencyMs != 80 || topo.Links[0].JitterMs != 10 {
		t.Fatalf("links: %+v", topo.Links)
	}
	if topo.Bindings["frontend"] != "us-east" || topo.Bindings["backend"] != "eu-west" {
		t.Fatalf("bindings: %+v", topo.Bindings)
	}
	call := c.Spec.ServiceSpecByName("frontend").Handlers["get"][1].(services.Call)
	if call.ErrorProb != 0.02 {
		t.Fatalf("error_rate not compiled: %+v", call)
	}
	// Encode → parse reproduces the File (regions, bindings, error_rate).
	f2, err := Parse("geo.yaml", f.Encode())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(f, f2) {
		t.Fatalf("round trip changed the file:\n%s\nvs\n%s", f.Encode(), f2.Encode())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := GenParams{Name: "gen-1", Seed: 42}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same params, different topologies")
	}
	if string(a.Encode()) != string(b.Encode()) {
		t.Fatal("same params, different encodings")
	}
	c, err := Generate(GenParams{Name: "gen-2", Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Services, c.Services) {
		t.Fatal("different seeds produced identical topologies (suspicious)")
	}
}

func TestGenerateAlwaysBuildable(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		f, err := Generate(GenParams{Name: "gen", Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c, err := Build(f)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		if len(c.Spec.Services) < 2 {
			t.Fatalf("seed %d: degenerate topology (%d services)", seed, len(c.Spec.Services))
		}
		if c.Rate <= 0 {
			t.Fatalf("seed %d: nonpositive rate", seed)
		}
		// Encode → parse → build round-trips to the same simulator spec.
		f2, err := Parse("gen.yaml", f.Encode())
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		c2, err := Build(f2)
		if err != nil {
			t.Fatalf("seed %d: rebuild: %v", seed, err)
		}
		if !reflect.DeepEqual(c.Spec, c2.Spec) {
			t.Fatalf("seed %d: encode/parse round trip changed the spec", seed)
		}
	}
}

func TestFleetMember(t *testing.T) {
	for i := 0; i < 6; i++ {
		f, err := FleetMember(FleetParams{Seed: 3}, i)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("tenant-%02d", i)
		if f.App != want {
			t.Fatalf("member %d named %q, want %q", i, f.App, want)
		}
		c, err := Build(f)
		if err != nil {
			t.Fatalf("member %d: build: %v", i, err)
		}
		if c.Rate <= 0 || len(c.Spec.Services) < 2 {
			t.Fatalf("member %d: degenerate tenant (rate %v, %d services)", i, c.Rate, len(c.Spec.Services))
		}
		again, err := FleetMember(FleetParams{Seed: 3}, i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f, again) {
			t.Fatalf("member %d differs between two equal calls", i)
		}
	}
}
