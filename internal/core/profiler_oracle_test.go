package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ursa/internal/core"
	"ursa/internal/experiments"
	"ursa/internal/fanout"
	"ursa/internal/services"
	"ursa/internal/sim"
)

// harnessProfilerConfig is the experiment harness's §III sweep at
// exploreScale 0.5: nine factors, four 15 s windows per step, seed 1.
func harnessProfilerConfig() core.ProfilerConfig {
	return core.ProfilerConfig{
		Seed:           1,
		WindowsPerStep: 4,
		Window:         15 * sim.Second,
		Factors:        []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0},
	}
}

// TestLazySweepMatchesCurve is the oracle for the top-down lazy sweep: for
// every service of the two benchmark apps and two generated fleet tenants,
// the threshold call must report the full curve's threshold bit for bit and
// exactly the curve's top steps, Converged marks included, and MQ services
// must skip the sweep in both calls.
func TestLazySweepMatchesCurve(t *testing.T) {
	var cases []experiments.AppCase
	for _, name := range []string{"social-network", "media-service"} {
		c, ok := experiments.AppCaseByName(name)
		if !ok {
			t.Fatalf("missing app case %s", name)
		}
		cases = append(cases, c)
	}
	for i := 0; i < 2; i++ {
		c, err := experiments.GenerateFleetCase(3, i)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}

	type job struct {
		app  string
		svc  services.ServiceSpec
		load map[string]float64
	}
	var jobs []job
	for _, c := range cases {
		ex := &core.Explorer{Spec: c.Spec, Mix: c.Mix, TotalRPS: c.TotalRPS}
		loads := ex.ServiceClassLoads()
		for _, ss := range c.Spec.Services {
			jobs = append(jobs, job{c.Name, ss, core.ScaleProfilingLoad(ss, loads[ss.Name], 0.85)})
		}
	}
	cfg := harnessProfilerConfig()
	mq := make([]bool, len(jobs))
	evaluated := make([]int, len(jobs))
	err := fanout.ForEachErr(runtime.GOMAXPROCS(0), len(jobs), func(j int) error {
		ss, load := jobs[j].svc, jobs[j].load
		id := jobs[j].app + "/" + ss.Name
		lazy := core.ProfileBackpressureThreshold(ss, load, cfg)
		curve := core.ProfileBackpressureCurve(ss, load, cfg)
		if ss.IngressCostMs <= 0 {
			mq[j] = true
			if lazy.Threshold != 1 || len(lazy.Steps) != 0 || curve.Threshold != 1 || len(curve.Steps) != 0 {
				return fmt.Errorf("%s: MQ service swept: lazy %+v, curve %+v", id, lazy, curve)
			}
			return nil
		}
		if len(curve.Steps) != len(cfg.Factors) {
			return fmt.Errorf("%s: curve has %d steps, want %d", id, len(curve.Steps), len(cfg.Factors))
		}
		if lazy.Threshold != curve.Threshold {
			return fmt.Errorf("%s: lazy threshold %v, curve %v", id, lazy.Threshold, curve.Threshold)
		}
		n := len(lazy.Steps)
		evaluated[j] = n
		if n == 0 || !reflect.DeepEqual(lazy.Steps, curve.Steps[len(curve.Steps)-n:]) {
			return fmt.Errorf("%s: lazy steps are not the curve's suffix:\nlazy  %+v\ncurve %+v", id, lazy.Steps, curve.Steps)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sawMQ := false
	ran, swept := map[string]int{}, map[string]int{}
	for j, m := range mq {
		sawMQ = sawMQ || m
		if !m {
			ran[jobs[j].app] += evaluated[j]
			swept[jobs[j].app] += len(cfg.Factors)
		}
	}
	if !sawMQ {
		t.Fatal("no MQ service among the cases; the skip is untested")
	}
	for _, c := range cases {
		t.Logf("%s: lazy sweep ran %d of %d steps", c.Name, ran[c.Name], swept[c.Name])
	}
}
