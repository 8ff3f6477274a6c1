package experiments

import (
	"fmt"
	"strings"

	"ursa/internal/baselines"
	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/region"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// SunCell is one (system, region) outcome of the Fig. R2 follow-the-sun
// experiment: one social-network tenant per region on a shared three-region
// cluster, each driven by the same diurnal curve phase-shifted a third of a
// period — every region's peak lands in the others' troughs.
type SunCell struct {
	System string
	Region string

	ViolationRate float64
	Availability  float64
	AvgCPUs       float64
	PeakCPUs      float64
	Unschedulable int
	Spilled       int
}

// SunResult is the full Fig. R2 output.
type SunResult struct {
	Cells  []SunCell
	Base   float64
	Peak   float64
	Period sim.Time
}

// SunSystems lists the systems compared. Ursa runs with spill on: a region at
// peak borrows the idle capacity of regions in their trough. The autoscalers
// run spill off — independent per-region deployments that must absorb their
// own peak inside their own capacity.
func SunSystems() []string { return []string{"ursa", "auto-a", "auto-b"} }

// sunRegions lists the Fig. R2 regions in longitude (peak) order.
func sunRegions() []string { return []string{"us-east", "eu-west", "ap-south"} }

// sunTopology sizes each region below one tenant's peak demand but well above
// its trough, so the fleet fits only if capacity can follow the sun. WAN
// numbers are nominal: every tenant is fully homed in one region, so its RPC
// edges never cross a link (spilled replicas keep home coordinates).
func sunTopology() region.Topology {
	groups := make([]region.Group, len(sunRegions()))
	for i, name := range sunRegions() {
		groups[i] = region.Group{Name: name, Capacities: []float64{48, 40}}
	}
	return region.Topology{
		Groups:           groups,
		DefaultLatencyMs: 70,
		DefaultJitterMs:  5,
	}
}

// RunFollowTheSun executes the Fig. R2 grid: per system, three tenants on one
// shared cluster, each pinned to its own region and loaded with a diurnal
// pattern offset by a third of the period. Systems run concurrently up to
// Options.Parallelism and merge in canonical order. A region map or app that
// fails to build is returned as an error.
func RunFollowTheSun(opts Options) (SunResult, error) {
	opts.defaults()
	dur := opts.scaleTime(48*sim.Minute, 16*sim.Minute)
	c, _ := AppCaseByName("social-network")
	res := SunResult{Base: c.TotalRPS * 0.5, Peak: c.TotalRPS * 1.5, Period: dur}

	systems := SunSystems()
	rows := make([][]SunCell, len(systems))
	err := opts.forEachErr(len(systems), func(i int) (err error) {
		opts.logf("figr2: %s", systems[i])
		rows[i], err = opts.runSunSystem(c, systems[i], dur)
		return err
	})
	if err != nil {
		return SunResult{}, err
	}
	for _, r := range rows {
		res.Cells = append(res.Cells, r...)
	}
	return res, nil
}

// runSunSystem deploys one tenant copy of the app per region on a shared
// grouped cluster — each with its own region map (all services bound home)
// and its own manager — and drives the phase-shifted diurnal load.
func (o *Options) runSunSystem(c AppCase, system string, dur sim.Time) ([]SunCell, error) {
	eng := sim.NewEngine(o.Seed + 1000)
	topo := sunTopology()
	topo.Spill = system == "ursa"
	cl := topo.Cluster(cluster.WorstFit)

	type tenant struct {
		app *services.App
		m   *region.Map
		mgr baselines.Manager
	}
	regions := sunRegions()
	tenants := make([]tenant, len(regions))
	for i, home := range regions {
		t := topo
		t.Bindings = map[string]string{}
		for _, ss := range c.Spec.Services {
			t.Bindings[ss.Name] = home
		}
		m, err := region.New(t, cl)
		if err != nil {
			return nil, fmt.Errorf("figr2: %s region map: %w", home, err)
		}
		spec := c.Spec
		spec.Name = c.Spec.Name + "-" + home
		app, err := services.NewAppWith(eng, spec, services.AppOptions{Cluster: cl, Placer: m})
		if err != nil {
			return nil, fmt.Errorf("figr2: %s app: %w", home, err)
		}
		m.Bind(eng, app)

		var mgr baselines.Manager
		if system == "ursa" {
			// Share the one cached exploration across tenants: the profiles
			// depend on the spec's services, not the tenant name.
			_, profiles, _, err := o.ursaProfiles(c)
			if err != nil {
				return nil, fmt.Errorf("figr2: %w", err)
			}
			mgr = &ursaAdapter{mgr: core.NewManager(spec, profiles), mix: c.Mix, totalRPS: c.TotalRPS}
		} else if mgr, err = o.newManagerFor(c, system); err != nil {
			return nil, fmt.Errorf("figr2: %w", err)
		}
		pattern := workload.Shift{
			Inner:  workload.Diurnal{Base: c.TotalRPS * 0.5, Peak: c.TotalRPS * 1.5, Period: dur},
			Offset: sim.Time(i) * (dur / sim.Time(len(regions))),
		}
		workload.New(eng, app, pattern, c.Mix).Start()
		if err := mgr.Attach(app); err != nil {
			return nil, fmt.Errorf("figr2: %s attach: %w", home, err)
		}
		tenants[i] = tenant{app: app, m: m, mgr: mgr}
	}

	warm := 2 * sim.Minute
	eng.RunUntil(warm)
	allocStart := make([]float64, len(tenants))
	for i, t := range tenants {
		allocStart[i] = t.app.AllocIntegralCPUSeconds()
	}
	// Track each tenant's peak allocation once a minute: the follow-the-sun
	// signature is peak ≫ average per region while the shared cluster stays
	// below the sum of peaks.
	peaks := make([]float64, len(tenants))
	probe := eng.Every(sim.Minute, func() {
		for i, t := range tenants {
			if a := t.app.TotalAllocatedCPUs(); a > peaks[i] {
				peaks[i] = a
			}
		}
	})
	end := warm + dur
	eng.RunUntil(end)
	probe.Stop()

	cells := make([]SunCell, len(tenants))
	for i, t := range tenants {
		t.mgr.Detach()
		_, viol := measureSLA(t.app, warm, end)
		cells[i] = SunCell{
			System:        system,
			Region:        regions[i],
			ViolationRate: viol,
			Availability:  t.app.Availability(),
			AvgCPUs:       avgCPUs(t.app, allocStart[i], dur),
			PeakCPUs:      peaks[i],
			Unschedulable: t.app.UnschedulableEvents,
			Spilled:       t.m.Spilled,
		}
	}
	return cells, nil
}

// Cell finds a specific result.
func (r SunResult) Cell(system, region string) (SunCell, bool) {
	for _, c := range r.Cells {
		if c.System == system && c.Region == region {
			return c, true
		}
	}
	return SunCell{}, false
}

// Render prints the Fig. R2 table.
func (r SunResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.R2 — follow-the-sun (diurnal %g→%g RPS per tenant, peaks %v apart)\n",
		r.Base, r.Peak, r.Period/sim.Time(len(sunRegions())))
	fmt.Fprintf(&b, "%-8s %-10s %8s %8s %8s %8s %8s %8s\n",
		"system", "region", "viol%", "avail%", "avgCPU", "peakCPU", "unsched", "spilled")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-8s %-10s %7.1f%% %7.2f%% %8.1f %8.1f %8d %8d\n",
			c.System, c.Region, c.ViolationRate*100, c.Availability*100,
			c.AvgCPUs, c.PeakCPUs, c.Unschedulable, c.Spilled)
	}
	return b.String()
}
