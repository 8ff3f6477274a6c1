package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// DiurnalPoint is one minute of the Fig. 13 trace for one service.
type DiurnalPoint struct {
	Minute int
	RPS    float64
	CPUs   float64
}

// DiurnalResult reproduces Fig. 13: per-service load and CPU allocation
// under a diurnal pattern when managed by Ursa.
type DiurnalResult struct {
	App      string
	Services map[string][]DiurnalPoint
}

// RunDiurnal deploys Ursa on the social network under a diurnal load and
// traces representative services.
func RunDiurnal(opts Options) (DiurnalResult, error) {
	opts.defaults()
	c, _ := AppCaseByName("social-network")
	tracked := []string{"compose-post", "post-storage", "user-timeline", "sentiment-ml"}

	dur := opts.scaleTime(48*sim.Minute, 16*sim.Minute)
	res := DiurnalResult{App: c.Name, Services: map[string][]DiurnalPoint{}}
	minute := 0
	_, err := Run(Scenario{
		Seed: opts.Seed + 7, Spec: c.Spec, Mix: c.Mix,
		Pattern: workload.Diurnal{Base: c.TotalRPS * 0.5, Peak: c.TotalRPS * 1.5, Period: dur},
		Manager: opts.newUrsa(c), Duration: dur,
		Probe: func(app *services.App, now sim.Time) {
			for _, name := range tracked {
				svc := app.Service(name)
				res.Services[name] = append(res.Services[name], DiurnalPoint{
					Minute: minute,
					RPS:    svc.ArrivalsAll.Rate(now-sim.Minute, now),
					CPUs:   svc.AllocatedCPUs(),
				})
			}
			minute++
		},
	})
	return res, err
}

// Render prints the per-service traces.
func (r DiurnalResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.13 — %s under diurnal load (Ursa): per-minute RPS and CPU allocation\n", r.App)
	names := make([]string, 0, len(r.Services))
	for name := range r.Services {
		names = append(names, name)
	}
	sort.Strings(names) // map order would shuffle sections run to run
	for _, name := range names {
		pts := r.Services[name]
		fmt.Fprintf(&b, "\n%s:\n%8s %10s %8s\n", name, "min", "rps", "cpus")
		for _, p := range pts {
			fmt.Fprintf(&b, "%8d %10.1f %8.1f\n", p.Minute, p.RPS, p.CPUs)
		}
	}
	return b.String()
}

// ScalingRange reports min/max allocated CPUs per tracked service — the
// Fig. 13 takeaway is that allocation follows load up and down.
func (r DiurnalResult) ScalingRange(service string) (min, max float64) {
	pts := r.Services[service]
	if len(pts) == 0 {
		return 0, 0
	}
	min, max = pts[0].CPUs, pts[0].CPUs
	for _, p := range pts {
		if p.CPUs < min {
			min = p.CPUs
		}
		if p.CPUs > max {
			max = p.CPUs
		}
	}
	return min, max
}
