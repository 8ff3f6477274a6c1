package experiments

import (
	"fmt"
	"strings"

	"ursa/internal/region"
	"ursa/internal/sim"
)

// RegionFailoverResult is the full Fig. R1 output: the social-network app
// spread over three geo-regions, with and without a whole-region outage.
type RegionFailoverResult struct {
	Cells   []OutageCell
	Region  string // the failed region
	FailAt  sim.Time
	FailFor sim.Time
}

// RegionSystems lists the systems compared under a region outage. Ursa runs
// with the spill policy on — a cross-region re-solve moves the dead region's
// services into surviving regions — while the threshold autoscalers model
// independent per-region deployments (spill off): each region scales only
// itself, so a dead region's capacity is simply gone.
func RegionSystems() []string { return []string{"ursa", "auto-a", "auto-b"} }

// SocialNetworkRegions carves the paper testbed's eight nodes (512 CPUs)
// into three geo-regions along the app's tier boundaries: the interactive
// RPC chain in us-east, the MQ/ML tier in us-west, and the storage tier in
// eu-west. WAN latencies are kept small enough that the 75 ms interactive
// SLAs remain feasible at baseline — the point of Fig. R1 is the outage, not
// a WAN-saturated steady state.
func SocialNetworkRegions() region.Topology {
	return region.Topology{
		Groups: []region.Group{
			{Name: "us-east", Capacities: []float64{88, 72, 64}},
			{Name: "us-west", Capacities: []float64{80, 64, 56}},
			{Name: "eu-west", Capacities: []float64{48, 40}},
		},
		Links: []region.Link{
			{From: "us-east", To: "us-west", LatencyMs: 12, JitterMs: 3},
			{From: "us-east", To: "eu-west", LatencyMs: 28, JitterMs: 3},
			{From: "us-west", To: "eu-west", LatencyMs: 36, JitterMs: 3},
		},
		Bindings: map[string]string{
			"frontend":     "us-east",
			"compose-post": "us-east",
			"text-service": "us-east",
			"user-service": "us-east",
			"url-shorten":  "us-east",

			"home-timeline":    "us-west",
			"social-graph":     "us-west",
			"sentiment-ml":     "us-west",
			"object-detect-ml": "us-west",

			"post-storage":  "eu-west",
			"user-timeline": "eu-west",
			"image-store":   "eu-west",
		},
	}
}

// RunRegionFailover executes the Fig. R1 grid: each system runs the
// social-network app across SocialNetworkRegions under constant load, once
// undisturbed and once with the storage region (eu-west) failing a third of
// the way in and recovering a quarter-run later. Every interactive class
// calls into eu-west, so the outage is total unless the manager can re-place
// the storage tier elsewhere. Cells run concurrently up to
// Options.Parallelism and merge in canonical order.
func RunRegionFailover(opts Options) (RegionFailoverResult, error) {
	opts.defaults()
	const failed = "eu-west"
	cells, failAt, failFor, err := opts.outageGrid("figr1", "region-fail", Fault{Region: failed}, RegionSystems(),
		func(s *Scenario, system string) {
			s.Regions = SocialNetworkRegions()
			s.Regions.Spill = system == "ursa"
		})
	return RegionFailoverResult{Cells: cells, Region: failed, FailAt: failAt, FailFor: failFor}, err
}

// Cell finds a specific result.
func (r RegionFailoverResult) Cell(system, scenario string) (OutageCell, bool) {
	return findCell(r.Cells, system, scenario)
}

// Render prints the Fig. R1 table.
func (r RegionFailoverResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.R1 — region failover (%s down %v→%v)\n",
		r.Region, r.FailAt, r.FailAt+r.FailFor)
	fmt.Fprintf(&b, "%-8s %-12s %8s %8s %9s %8s %8s %8s %8s %8s %8s %8s\n",
		"system", "scenario", "viol%", "avail%", "recovery", "avgCPU", "evicted", "unsched", "spilled", "wanhops", "retries", "backlog")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-8s %-12s %7.1f%% %7.2f%% %9s %8.1f %8d %8d %8d %8d %8.0f %8d\n",
			c.System, c.Scenario, c.ViolationRate*100, c.Availability*100, recoveryText(c),
			c.AvgCPUs, c.Evicted, c.Unschedulable, c.Spilled, c.WANHops, c.Retries, c.Backlog)
	}
	return b.String()
}
