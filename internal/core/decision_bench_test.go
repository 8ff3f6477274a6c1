package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fig11ScaleModel builds a deterministic synthetic model at the scale of the
// social-network case in the fig11 grids: 12 services, 8 end-to-end class
// targets over partially shared 3–6 service paths, 3 LPR points per service
// and ~100k latency samples in total. Benchmarks over it are self-contained
// (no exploration run) yet exercise the same search shape as the real
// decision path.
func fig11ScaleModel() *Model {
	rng := rand.New(rand.NewSource(42))
	const nSvc, nTgt, nPts = 12, 8, 3
	classes := make([]string, nTgt)
	for t := range classes {
		classes[t] = fmt.Sprintf("class%d", t)
	}
	svcs := make([]string, nSvc)
	profiles := make(map[string]*Profile, nSvc)
	loads := make(map[string]map[string]float64, nSvc)
	for i := range svcs {
		name := fmt.Sprintf("svc%02d", i)
		svcs[i] = name
		pts := make([]LPRPoint, 0, nPts)
		for pi := 0; pi < nPts; pi++ {
			lpr := 30 * float64(pi+1)
			pt := LPRPoint{
				Replicas:    nPts - pi,
				LPR:         map[string]float64{},
				RateSamples: map[string][]float64{},
				Latency:     map[string][]float64{},
			}
			for _, cls := range classes {
				pt.LPR[cls] = lpr
				pt.RateSamples[cls] = []float64{lpr * 0.95, lpr, lpr * 1.05}
				samples := make([]float64, 1100)
				base := 2 + 3*float64(pi)*rng.Float64()
				for k := range samples {
					samples[k] = base * math.Exp(rng.NormFloat64()*0.4)
				}
				pt.Latency[cls] = samples
			}
			pts = append(pts, pt)
		}
		p := &Profile{Service: name, CPUsPerReplica: 2, BackpressureUtil: 0.7, Points: pts}
		p.SortPoints()
		profiles[name] = p
		ld := map[string]float64{}
		for _, cls := range classes {
			ld[cls] = 20 + rng.Float64()*60
		}
		loads[name] = ld
	}
	targets := make([]ClassTarget, 0, nTgt)
	for t := 0; t < nTgt; t++ {
		pathLen := 3 + rng.Intn(4)
		perm := rng.Perm(nSvc)[:pathLen]
		path := make([]PathVisit, 0, pathLen)
		for _, si := range perm {
			path = append(path, PathVisit{Service: svcs[si], Class: classes[t], Count: 1})
		}
		targets = append(targets, ClassTarget{
			Name:       classes[t],
			Percentile: 99,
			TargetMs:   80 * float64(pathLen),
			Path:       path,
		})
	}
	return &Model{Profiles: profiles, Targets: targets, Loads: loads}
}

// BenchmarkSolve measures the optimised decision path on the fig11-scale
// model, steady state (percentile tables warm — the profiler precomputes
// them off the decision path in production too).
func BenchmarkSolve(b *testing.B) {
	m := fig11ScaleModel()
	if _, err := m.Solve(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveReference is the pre-optimisation baseline on the identical
// model: the retained reference implementation recomputes percentiles from
// raw samples, re-sorts options per node and allocates DP tables per leaf.
// The Solve/SolveReference ratio in BENCH_decision.json is the headline
// decision-path speedup.
func BenchmarkSolveReference(b *testing.B) {
	m := fig11ScaleModel()
	if _, err := m.solveReference(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.solveReference(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateBound measures the Fig. 9/10 window estimator: one
// 8-term class target over fresh 1100-sample window distributions.
func BenchmarkEstimateBound(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const terms = 8
	dists := make(map[string][]float64, terms)
	path := make([]PathVisit, 0, terms)
	for i := 0; i < terms; i++ {
		svc := fmt.Sprintf("svc%02d", i)
		samples := make([]float64, 1100)
		for k := range samples {
			samples[k] = 5 * math.Exp(rng.NormFloat64()*0.4)
		}
		dists[svc+"/req"] = samples
		path = append(path, PathVisit{Service: svc, Class: "req", Count: 1})
	}
	tgt := ClassTarget{Name: "req", Percentile: 99, TargetMs: 1e9, Path: path}
	if _, ok := EstimateBound(tgt, dists); !ok {
		b.Fatal("estimator failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := EstimateBound(tgt, dists); !ok {
			b.Fatal("estimator failed")
		}
	}
}

// BenchmarkResolveFastPath measures the incremental re-solve: loads jitter
// by ±1% (< ε) around the last full solve, so every Optimize is served by
// the O(terms) incumbent re-verification.
func BenchmarkResolveFastPath(b *testing.B) {
	m := fig11ScaleModel()
	mgr := &Manager{Profiles: m.Profiles, Targets: m.Targets}
	if _, err := mgr.Optimize(m.Loads); err != nil {
		b.Fatal(err)
	}
	jittered := make([]map[string]map[string]float64, 2)
	for j := range jittered {
		scale := 1 + 0.01*float64(2*j-1)
		out := make(map[string]map[string]float64, len(m.Loads))
		for svc, classes := range m.Loads {
			c := make(map[string]float64, len(classes))
			for class, v := range classes {
				c[class] = v * scale
			}
			out[svc] = c
		}
		jittered[j] = out
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Optimize(jittered[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if mgr.FastResolveCount != b.N {
		b.Fatalf("fast path served %d of %d optimizes", mgr.FastResolveCount, b.N)
	}
}
