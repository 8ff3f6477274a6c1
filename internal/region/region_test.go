package region

import (
	"math"
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/services"
	"ursa/internal/sim"
)

// geoSpec: frontend (5 ms) → backend (10 ms) over nested RPC, deterministic
// compute, one replica each.
func geoSpec() services.AppSpec {
	return services.AppSpec{
		Name: "geo",
		Services: []services.ServiceSpec{
			{
				Name:            "frontend",
				Threads:         4,
				CPUs:            4,
				InitialReplicas: 1,
				Handlers: map[string][]services.Step{
					"get": services.Seq(
						services.Compute{MeanMs: 5, CV: -1},
						services.Call{Service: "backend", Mode: services.NestedRPC},
					),
				},
			},
			{
				Name:            "backend",
				Threads:         4,
				CPUs:            1,
				InitialReplicas: 1,
				Handlers: map[string][]services.Step{
					"get": services.Seq(services.Compute{MeanMs: 10, CV: -1}),
				},
			},
		},
		Classes: []services.ClassSpec{{Name: "get", Entry: "frontend", SLAPercentile: 99, SLAMillis: 500}},
	}
}

func twoRegionTopo() Topology {
	return Topology{
		Groups: []Group{
			{Name: "us-east", Capacities: []float64{8, 8}},
			{Name: "eu-west", Capacities: []float64{8}},
		},
		Links:    []Link{{From: "us-east", To: "eu-west", LatencyMs: 80}},
		Bindings: map[string]string{"frontend": "us-east", "backend": "eu-west"},
	}
}

func TestInstallEmptyTopologyIsNoOp(t *testing.T) {
	eng := sim.NewEngine(1)
	app := services.MustNewApp(eng, geoSpec())
	m, err := Install(eng, app, Topology{})
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatal("empty topology returned a live map")
	}
	if app.Net != nil || app.Placer != nil {
		t.Fatal("empty topology installed hooks")
	}
}

func TestDeployPinsInitialReplicasToHomeRegions(t *testing.T) {
	eng := sim.NewEngine(1)
	app, m, err := Deploy(eng, geoSpec(), twoRegionTopo(), cluster.BestFit, false)
	if err != nil {
		t.Fatal(err)
	}
	cl := app.Cluster
	if got := cl.GroupUsed("us-east"); got != 4 {
		t.Fatalf("us-east used = %v, want 4 (frontend)", got)
	}
	if got := cl.GroupUsed("eu-west"); got != 1 {
		t.Fatalf("eu-west used = %v, want 1 (backend)", got)
	}
	if m.Spilled != 0 {
		t.Fatalf("spilled = %d, want 0", m.Spilled)
	}
	if m.HomeOf("frontend") != "us-east" || m.HomeOf("backend") != "eu-west" {
		t.Fatalf("homes: %s / %s", m.HomeOf("frontend"), m.HomeOf("backend"))
	}
}

func TestUnboundServiceDefaultsToFirstRegion(t *testing.T) {
	topo := twoRegionTopo()
	delete(topo.Bindings, "backend")
	eng := sim.NewEngine(1)
	app, _, err := Deploy(eng, geoSpec(), topo, cluster.BestFit, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Cluster.GroupUsed("us-east"); got != 5 {
		t.Fatalf("us-east used = %v, want 5 (both services)", got)
	}
}

func TestSpillOverflowsNearestRegionOnly(t *testing.T) {
	topo := Topology{
		Groups: []Group{
			{Name: "us", Capacities: []float64{4}},
			{Name: "ap", Capacities: []float64{8}},
			{Name: "eu", Capacities: []float64{8}},
		},
		Links: []Link{
			{From: "us", To: "eu", LatencyMs: 20},
			{From: "us", To: "ap", LatencyMs: 120},
		},
		Bindings: map[string]string{"frontend": "us", "backend": "us"},
	}
	eng := sim.NewEngine(1)
	// frontend (4 CPUs) fills us; backend (1 CPU) must spill to eu, the
	// nearest foreign region — not ap, which is declared earlier.
	app, m, err := Deploy(eng, geoSpec(), topo, cluster.BestFit, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Spilled != 1 {
		t.Fatalf("spilled = %d, want 1", m.Spilled)
	}
	if got := app.Cluster.GroupUsed("eu"); got != 1 {
		t.Fatalf("eu used = %v, want 1 (spilled backend)", got)
	}
	if got := app.Cluster.GroupUsed("ap"); got != 0 {
		t.Fatalf("ap used = %v, want 0", got)
	}
}

func TestPinnedModeRefusesSpill(t *testing.T) {
	topo := Topology{
		Groups: []Group{
			{Name: "us", Capacities: []float64{4}},
			{Name: "eu", Capacities: []float64{8}},
		},
		Bindings: map[string]string{"frontend": "us", "backend": "us"},
	}
	eng := sim.NewEngine(1)
	app, m, err := Deploy(eng, geoSpec(), topo, cluster.BestFit, false)
	if err != nil {
		t.Fatal(err)
	}
	if app.UnschedulableEvents != 1 {
		t.Fatalf("unschedulable = %d, want 1", app.UnschedulableEvents)
	}
	if m.Spilled != 0 {
		t.Fatalf("spilled = %d, want 0", m.Spilled)
	}
	if got := app.Service("backend").Replicas(); got != 0 {
		t.Fatalf("backend replicas = %d, want 0 (pinned, region full)", got)
	}
}

func TestCrossRegionRPCGainsWANLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	app, m, err := Deploy(eng, geoSpec(), twoRegionTopo(), cluster.BestFit, false)
	if err != nil {
		t.Fatal(err)
	}
	app.Inject("get")
	eng.RunUntil(sim.Second)
	lats := app.E2E.Class("get").Between(0, math.MaxInt64)
	if len(lats) != 1 {
		t.Fatalf("completed %d jobs, want 1", len(lats))
	}
	// 5 ms frontend + 80 ms WAN on the request edge + 10 ms backend; the
	// response path is not delayed.
	if math.Abs(lats[0]-95) > 1e-6 {
		t.Fatalf("latency = %v ms, want 95", lats[0])
	}
	if m.WANHops != 1 {
		t.Fatalf("WAN hops = %d, want 1", m.WANHops)
	}
}

func TestIntraRegionRPCStaysUndelayed(t *testing.T) {
	topo := twoRegionTopo()
	topo.Bindings["backend"] = "us-east"
	eng := sim.NewEngine(1)
	app, m, err := Deploy(eng, geoSpec(), topo, cluster.BestFit, false)
	if err != nil {
		t.Fatal(err)
	}
	app.Inject("get")
	eng.RunUntil(sim.Second)
	lats := app.E2E.Class("get").Between(0, math.MaxInt64)
	if len(lats) != 1 || math.Abs(lats[0]-15) > 1e-6 {
		t.Fatalf("latency = %v, want [15]", lats)
	}
	if m.WANHops != 0 {
		t.Fatalf("WAN hops = %d, want 0", m.WANHops)
	}
}

func TestWANJitterIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) float64 {
		topo := twoRegionTopo()
		topo.Links[0].JitterMs = 20
		eng := sim.NewEngine(seed)
		app, _, err := Deploy(eng, geoSpec(), topo, cluster.BestFit, false)
		if err != nil {
			t.Fatal(err)
		}
		app.Inject("get")
		eng.RunUntil(sim.Second)
		lats := app.E2E.Class("get").Between(0, math.MaxInt64)
		if len(lats) != 1 {
			t.Fatalf("completed %d jobs, want 1", len(lats))
		}
		return lats[0]
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed, different latencies: %v vs %v", a, b)
	}
	if a < 95 || a >= 115 {
		t.Fatalf("jittered latency %v outside [95, 115)", a)
	}
}

func TestFailRegionEvictsAndRecoverReopens(t *testing.T) {
	eng := sim.NewEngine(1)
	app, m, err := Deploy(eng, geoSpec(), twoRegionTopo(), cluster.BestFit, true)
	if err != nil {
		t.Fatal(err)
	}
	evicted := m.FailRegion("eu-west")
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1 (backend)", evicted)
	}
	if !m.Failed("eu-west") {
		t.Fatal("region not marked failed")
	}
	if got := app.Cluster.GroupUsed("eu-west"); got != 0 {
		t.Fatalf("eu-west still holds %v CPUs", got)
	}
	// Scale-out during the outage spills into the surviving region.
	app.Service("backend").SetReplicas(1)
	if m.Spilled != 1 {
		t.Fatalf("spilled = %d, want 1", m.Spilled)
	}
	if got := app.Cluster.GroupUsed("us-east"); got != 5 {
		t.Fatalf("us-east used = %v, want 5", got)
	}

	m.RecoverRegion("eu-west")
	if m.Failed("eu-west") {
		t.Fatal("region still marked failed after recovery")
	}
	// New placements pin home again.
	app.Service("backend").SetReplicas(2)
	if got := app.Cluster.GroupUsed("eu-west"); got != 1 {
		t.Fatalf("eu-west used = %v after recovery, want 1", got)
	}
}

func TestInnerInjectorChains(t *testing.T) {
	eng := sim.NewEngine(1)
	topo := twoRegionTopo()
	cl := topo.Cluster(cluster.BestFit)
	m, err := New(topo, cl)
	if err != nil {
		t.Fatal(err)
	}
	app, err := services.NewAppWith(eng, geoSpec(), services.AppOptions{Cluster: cl, Placer: m})
	if err != nil {
		t.Fatal(err)
	}
	app.Net = addNet{delay: sim.Millis2Time(7)}
	m.Bind(eng, app)
	d, drop := m.Intercept("frontend", "backend")
	if drop || d != sim.Millis2Time(80)+sim.Millis2Time(7) {
		t.Fatalf("chained delay = %v drop=%v, want 87ms", d, drop)
	}
	app.Net = dropNet{}
	mm, err := New(topo, cl)
	if err != nil {
		t.Fatal(err)
	}
	mm.Bind(eng, app)
	if _, drop := mm.Intercept("frontend", "backend"); !drop {
		t.Fatal("inner drop not honoured")
	}
}

type addNet struct{ delay sim.Time }

func (a addNet) Intercept(src, dst string) (sim.Time, bool) { return a.delay, false }

type dropNet struct{}

func (dropNet) Intercept(src, dst string) (sim.Time, bool) { return 0, true }
