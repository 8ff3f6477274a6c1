// Media service: Ursa vs default autoscaling on the §VI media benchmark,
// deployed on the paper's 8-node cluster, under a bursty load. The report
// contrasts SLA compliance and CPU cost — the Fig. 11/12 story on one app —
// and uses the tracer to show where a slow get-info request spent its time.
package main

import (
	"fmt"
	"log"

	"ursa"
)

func main() {
	spec := ursa.MediaService()
	mix := ursa.MediaServiceMix()
	const rps = 60
	const horizon = 30 * ursa.Minute

	// Explore once; both managers could reuse these profiles, but only Ursa
	// needs them.
	thresholds := map[string]float64{}
	for _, s := range spec.Services {
		thresholds[s.Name] = 0.55
	}
	ex := &ursa.Explorer{Spec: spec, Mix: mix, TotalRPS: rps, Thresholds: thresholds}
	fmt.Println("exploring the media service...")
	profiles, _, err := ex.ExploreAll(ursa.ExploreConfig{WindowsPerPoint: 5, Window: 15 * ursa.Second})
	if err != nil {
		log.Fatal(err)
	}

	type outcome struct {
		name      string
		violation float64
		cpus      float64
	}
	burst := ursa.Modulate{
		Base:   ursa.Constant{Value: rps},
		Factor: 1.8,
		Start:  12 * ursa.Minute,
		Len:    6 * ursa.Minute,
	}

	run := func(name string, attach func(*ursa.App) func()) outcome {
		eng := ursa.NewEngine(5)
		app, err := ursa.NewAppOnCluster(eng, spec, ursa.PaperTestbed())
		if err != nil {
			log.Fatal(err)
		}
		app.Tracer = ursa.NewTracer(50, 2000)
		detach := attach(app)
		gen := ursa.NewGenerator(eng, app, burst, mix)
		gen.Start()
		warm := 2 * ursa.Minute
		eng.RunUntil(warm)
		a0 := app.AllocIntegralCPUSeconds()
		eng.RunUntil(warm + horizon)
		a1 := app.AllocIntegralCPUSeconds()
		detach()

		total, viol := 0, 0
		for _, cs := range spec.Classes {
			rec := app.E2E.Class(cs.Name)
			if rec == nil {
				continue
			}
			for w := warm; w < warm+horizon; w += ursa.Minute {
				if rec.Count(w, w+ursa.Minute) == 0 {
					continue
				}
				total++
				if rec.PercentileBetween(w, w+ursa.Minute, cs.SLAPercentile) > cs.SLAMillis {
					viol++
				}
			}
		}
		// Show the critical path of the slowest traced get-info request.
		if slow := app.Tracer.SlowestTrace("get-info"); slow != nil && name == "ursa" {
			svc, tm := slow.CriticalService()
			fmt.Printf("\nslowest traced get-info under %s: %v end-to-end; critical service %s (%v)\n",
				name, slow.Latency(), svc, tm)
		}
		return outcome{name, float64(viol) / float64(max(1, total)), (a1 - a0) / horizon.Seconds()}
	}

	results := []outcome{
		run("ursa", func(app *ursa.App) func() {
			mgr := ursa.NewManager(spec, profiles)
			if err := mgr.Run(app, mix, rps, ursa.ControllerConfig{}, ursa.AnomalyConfig{}); err != nil {
				log.Fatal(err)
			}
			return mgr.Stop
		}),
		run("auto-a", func(app *ursa.App) func() {
			as := ursa.NewAutoscaler(ursa.AutoscalerA())
			if err := as.Attach(app); err != nil {
				log.Fatal(err)
			}
			return as.Detach
		}),
		run("auto-b", func(app *ursa.App) func() {
			as := ursa.NewAutoscaler(ursa.AutoscalerB())
			if err := as.Attach(app); err != nil {
				log.Fatal(err)
			}
			return as.Detach
		}),
	}

	fmt.Printf("\n%-8s %12s %12s  (media service, +80%% burst mid-run)\n", "system", "violations", "avg CPUs")
	for _, r := range results {
		fmt.Printf("%-8s %11.1f%% %12.1f\n", r.name, r.violation*100, r.cpus)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
