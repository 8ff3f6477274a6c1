package experiments

import (
	"fmt"
	"strings"

	"ursa/internal/core"
	"ursa/internal/sim"
	"ursa/internal/topology"
)

// ProfilingResult reproduces Fig. 4: the backpressure-free threshold
// profiling curves for two social-network services — the post service
// (post-storage) and the timeline-read service (user-timeline).
type ProfilingResult struct {
	Services map[string]core.BackpressureResult
}

// RunProfiling sweeps the CPU limit for the two services under their
// nominal aggregate loads (fan-in synthesized by the workload generator).
func RunProfiling(opts Options) ProfilingResult {
	opts.defaults()
	spec := topology.SocialNetwork()
	ex := &core.Explorer{Spec: spec, Mix: topology.SocialNetworkMix(), TotalRPS: 100}
	loads := ex.ServiceClassLoads()

	names := []string{"post-storage", "user-timeline"}
	sweeps := make([]core.BackpressureResult, len(names))
	opts.forEach(len(names), func(i int) {
		name := names[i]
		opts.logf("fig4: profiling %s", name)
		ss := spec.ServiceSpecByName(name)
		// Aggregate (fan-in) load, rescaled so the sweep spans saturation
		// at low limits through convergence at high ones.
		perReplica := core.ScaleProfilingLoad(*ss, loads[name], 0.85)
		sweeps[i] = core.ProfileBackpressureCurve(*ss, perReplica, core.ProfilerConfig{
			Seed:           opts.Seed,
			WindowsPerStep: opts.scaleInt(8, 4),
			Window:         15 * sim.Second,
		})
	})
	res := ProfilingResult{Services: map[string]core.BackpressureResult{}}
	for i, name := range names {
		res.Services[name] = sweeps[i]
	}
	return res
}

// Render prints the sweep tables (the Fig. 4 curves in text form).
func (r ProfilingResult) Render() string {
	var b strings.Builder
	for _, name := range []string{"post-storage", "user-timeline"} {
		pr, ok := r.Services[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "Fig.4 — threshold profiling of %s (backpressure-free util threshold: %.1f%%)\n", name, pr.Threshold*100)
		fmt.Fprintf(&b, "%10s %14s %12s %10s %10s\n", "cpu-limit", "proxy-p99(ms)", "±std", "svc-p99", "util")
		for _, st := range pr.Steps {
			mark := ""
			if st.Converged {
				mark = "  <- converged"
			}
			fmt.Fprintf(&b, "%10.2f %14.2f %12.2f %10.2f %9.1f%%%s\n",
				st.CPULimit, st.ProxyP99Mean, st.ProxyP99Std, st.ServiceP99, st.Util*100, mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}
