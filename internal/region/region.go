// Package region is the geo-topology subsystem: it partitions a cluster into
// named regions (node groups with their own capacity indexes), attaches
// deterministic WAN latency/jitter to cross-region RPC edges, and makes
// replica placement region-aware — replicas pin to their service's home
// region and, under the spill policy, overflow into the nearest foreign
// region when home is capacity-short. FailRegion/RecoverRegion drive the
// correlated all-nodes-at-once failure mode that distinguishes a region
// outage from the single-node faults of internal/faults.
//
// Determinism contract (the same one internal/faults keeps): installing an
// empty Topology is a no-op — no Placer, no net hook, no RNG stream — so a
// zero-region run is byte-identical to a build without this package. A
// non-empty topology draws WAN jitter from the dedicated "region/wan" stream
// and leaves every other stream untouched.
//
// WAN semantics: cross-region delay applies to nested- and event-RPC edges
// (the delivery paths that consult services.NetInjector); MQ deliveries are
// modeled as a region-local broker and stay undelayed. Delay is derived from
// the *home* regions of caller and callee services — a replica spilled into a
// foreign region keeps its service's home coordinates, a deliberate
// approximation that keeps the edge latency a pure function of the service
// pair. An inner injector (e.g. internal/faults net rules) chains behind the
// WAN hook: its delay adds, its drops drop. Bind the region map after
// faults.Start so the chain composes.
package region

import (
	"fmt"
	"math/rand"
	"sort"

	"ursa/internal/cluster"
	"ursa/internal/services"
	"ursa/internal/sim"
)

// Group declares one region: a named group of nodes with given CPU
// capacities.
type Group struct {
	Name       string
	Capacities []float64
}

// Link is the WAN edge between two regions. Lookup tries From→To, then
// To→From, then the topology default — declare one direction for a symmetric
// link. Jitter spreads each delivery uniformly over [0, JitterMs).
type Link struct {
	From, To  string
	LatencyMs float64
	JitterMs  float64
}

// Topology declares a full geo-layout. The zero value (no groups) is the
// single-region world every pre-region experiment runs in.
type Topology struct {
	Groups []Group
	Links  []Link
	// DefaultLatencyMs/DefaultJitterMs apply to cross-region pairs without
	// an explicit link.
	DefaultLatencyMs float64
	DefaultJitterMs  float64
	// Bindings maps service name → home region. Services without a binding
	// default to the first declared region.
	Bindings map[string]string
	// Spill lets placement overflow into foreign regions (nearest first by
	// WAN latency, then declaration order) when the home region is
	// capacity-short. Off models independent per-region autoscalers: a
	// capacity-short region just stays short.
	Spill bool
}

// Empty reports whether the topology declares no regions.
func (t Topology) Empty() bool { return len(t.Groups) == 0 }

// Cluster builds the grouped cluster this topology describes.
func (t Topology) Cluster(strategy cluster.Strategy) *cluster.Cluster {
	groups := make([]cluster.NodeGroup, len(t.Groups))
	for i, g := range t.Groups {
		groups[i] = cluster.NodeGroup{Name: g.Name, Capacities: g.Capacities}
	}
	return cluster.NewGrouped(strategy, groups...)
}

// Map is a topology wired into a running app: the region-aware Placer, the
// WAN edge injector, and the correlated region failure driver.
type Map struct {
	eng  *sim.Engine
	app  *services.App
	cl   *cluster.Cluster
	topo Topology

	home       map[string]string   // service → home region
	order      []string            // region names, declaration order
	spillOrder map[string][]string // home → foreign regions, nearest first
	wan        map[[2]string]Link
	rng        *rand.Rand
	inner      services.NetInjector
	failed     map[string]bool

	// Spilled counts replicas placed outside their home region; WANHops
	// counts cross-region RPC deliveries that gained WAN delay.
	Spilled int
	WANHops int
}

// New validates the topology against a grouped cluster and builds the region
// map's placement state — home bindings, spill order, WAN table — without
// touching any app. The returned Map can serve PlaceReplica immediately, so
// it can be handed to services.NewAppWith as AppOptions.Placer and then
// completed with Bind once the app exists. New rejects an empty topology: a
// zero-region run simply builds no Map.
func New(topo Topology, cl *cluster.Cluster) (*Map, error) {
	if topo.Empty() {
		return nil, fmt.Errorf("region: empty topology")
	}
	if cl == nil {
		return nil, fmt.Errorf("region: nil cluster")
	}
	m := &Map{
		cl:         cl,
		topo:       topo,
		home:       map[string]string{},
		spillOrder: map[string][]string{},
		wan:        map[[2]string]Link{},
		failed:     map[string]bool{},
	}
	seen := map[string]int{}
	for i, g := range topo.Groups {
		if _, dup := seen[g.Name]; dup {
			return nil, fmt.Errorf("region: duplicate region %q", g.Name)
		}
		seen[g.Name] = i
		if cl.GroupNodes(g.Name) == nil {
			return nil, fmt.Errorf("region: cluster has no node group %q (build it with Topology.Cluster)", g.Name)
		}
		m.order = append(m.order, g.Name)
	}
	for _, l := range topo.Links {
		for _, end := range []string{l.From, l.To} {
			if _, ok := seen[end]; !ok {
				return nil, fmt.Errorf("region: WAN link references unknown region %q", end)
			}
		}
		m.wan[[2]string{l.From, l.To}] = l
	}
	for name, r := range topo.Bindings {
		if _, ok := seen[r]; !ok {
			return nil, fmt.Errorf("region: service %q bound to unknown region %q", name, r)
		}
		m.home[name] = r
	}
	for _, g := range topo.Groups {
		var alts []string
		for _, h := range topo.Groups {
			if h.Name != g.Name {
				alts = append(alts, h.Name)
			}
		}
		sort.SliceStable(alts, func(i, j int) bool {
			li, lj := m.link(g.Name, alts[i]).LatencyMs, m.link(g.Name, alts[j]).LatencyMs
			if li != lj {
				return li < lj
			}
			return seen[alts[i]] < seen[alts[j]]
		})
		m.spillOrder[g.Name] = alts
	}
	return m, nil
}

// Bind completes the map against a deployed app: the WAN RNG stream is
// created, the WAN injector chains in front of any existing app.Net hook
// (install after faults.Start so the chain composes), and app.Placer pins
// every future replica. Bind panics if the app is bound to a different
// cluster than the map.
func (m *Map) Bind(eng *sim.Engine, app *services.App) {
	if app.Cluster != m.cl {
		panic("region: app is bound to a different cluster than the region map")
	}
	m.eng = eng
	m.app = app
	m.rng = eng.RNG("region/wan")
	m.inner = app.Net
	app.Net = m
	app.Placer = m
}

// Deploy builds the grouped cluster for the topology, deploys the app with
// region-pinned placement from the very first replica, and wires the WAN
// injector. spill enables cross-region overflow placement.
func Deploy(eng *sim.Engine, spec services.AppSpec, topo Topology, strategy cluster.Strategy, spill bool) (*services.App, *Map, error) {
	if topo.Empty() {
		return nil, nil, fmt.Errorf("region: empty topology (deploy with services.NewAppOnCluster instead)")
	}
	topo.Spill = spill
	cl := topo.Cluster(strategy)
	m, err := New(topo, cl)
	if err != nil {
		return nil, nil, err
	}
	app, err := services.NewAppWith(eng, spec, services.AppOptions{Cluster: cl, Placer: m})
	if err != nil {
		return nil, nil, err
	}
	m.Bind(eng, app)
	return app, m, nil
}

// link resolves the WAN edge between two regions: forward, reverse, default.
func (m *Map) link(a, b string) Link {
	if l, ok := m.wan[[2]string{a, b}]; ok {
		return l
	}
	if l, ok := m.wan[[2]string{b, a}]; ok {
		return l
	}
	return Link{LatencyMs: m.topo.DefaultLatencyMs, JitterMs: m.topo.DefaultJitterMs}
}

// Regions lists region names in declaration order.
func (m *Map) Regions() []string { return m.order }

// HomeOf reports a service's home region: its explicit binding, or the first
// declared region when unbound.
func (m *Map) HomeOf(service string) string {
	if r, ok := m.home[service]; ok {
		return r
	}
	return m.order[0]
}

// Failed reports whether a region is currently failed.
func (m *Map) Failed(name string) bool { return m.failed[name] }

// PlaceReplica implements services.Placer: pin to the home region, spill to
// the nearest foreign region (by WAN latency) when home is capacity-short
// and the policy allows. The returned error is always the home region's
// capacity diagnostic, so an unschedulable event names the region that was
// actually short.
func (m *Map) PlaceReplica(service string, cpus float64) (cluster.Placement, error) {
	home := m.HomeOf(service)
	p, err := m.cl.PlaceIn(home, cpus)
	if err == nil {
		return p, nil
	}
	if m.topo.Spill {
		if _, short := err.(cluster.ErrNoCapacity); short {
			for _, alt := range m.spillOrder[home] {
				if q, err2 := m.cl.PlaceIn(alt, cpus); err2 == nil {
					m.Spilled++
					return q, nil
				}
			}
		}
	}
	return cluster.Placement{}, err
}

// Intercept implements services.NetInjector: cross-region RPC edges gain the
// link's latency plus uniform jitter from the dedicated "region/wan" stream;
// intra-region edges pass through untouched. Any inner injector (fault
// rules) chains behind: its delay adds, its drops drop.
func (m *Map) Intercept(src, dst string) (sim.Time, bool) {
	var delay sim.Time
	rs, rd := m.HomeOf(src), m.HomeOf(dst)
	if rs != rd {
		l := m.link(rs, rd)
		ms := l.LatencyMs
		if l.JitterMs > 0 {
			ms += l.JitterMs * m.rng.Float64()
		}
		if ms > 0 {
			m.WANHops++
			delay = sim.Millis2Time(ms)
		}
	}
	if m.inner != nil {
		d, drop := m.inner.Intercept(src, dst)
		if drop {
			return 0, true
		}
		delay += d
	}
	return delay, false
}

// FailRegion fails every node of the region at once: all nodes are marked
// down first — so the eviction cascade's re-placements can never land on a
// sibling that is about to fail too — then each node's resident replicas are
// crash-evicted (firing the app's OnEviction hook per node). Returns the
// number of replicas evicted.
func (m *Map) FailRegion(name string) int {
	nodes := m.cl.GroupNodes(name)
	if nodes == nil {
		panic(fmt.Sprintf("region: unknown region %q", name))
	}
	for _, n := range nodes {
		n.SetDown(true)
	}
	evicted := 0
	for _, n := range nodes {
		for _, ev := range m.app.EvictNode(n) {
			evicted += ev.Replicas
		}
	}
	m.failed[name] = true
	return evicted
}

// RecoverRegion brings every node of the region back up. Existing placements
// elsewhere are untouched; the manager's next re-solve (or scale-out) starts
// landing replicas in the region again.
func (m *Map) RecoverRegion(name string) {
	nodes := m.cl.GroupNodes(name)
	if nodes == nil {
		panic(fmt.Sprintf("region: unknown region %q", name))
	}
	for _, n := range nodes {
		n.SetDown(false)
	}
	delete(m.failed, name)
}
