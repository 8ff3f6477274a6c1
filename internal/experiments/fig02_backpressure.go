package experiments

import (
	"fmt"
	"math"
	"strings"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/topology"
	"ursa/internal/workload"
)

// BackpressureCell is one (tier, minute) cell of the Fig. 2 heat map.
type BackpressureCell struct {
	Tier   int
	Minute int
	P99Ms  float64
}

// BackpressureResult reproduces Fig. 2: per-tier p99 response time per
// one-minute interval for the three chain types, with the leaf tier's CPU
// throttled during minutes 3–6.
type BackpressureResult struct {
	// Grid maps mode → [tier-1][minute] p99 (ms).
	Grid map[string][][]float64
	// Minutes is the horizontal extent (10 in the paper).
	Minutes int
}

// RunBackpressure executes the §III case study. The three chain types are
// independent simulations and run concurrently up to Options.Parallelism.
func RunBackpressure(opts Options) BackpressureResult {
	opts.defaults()
	const minutes = 10
	modes := []services.CallMode{services.NestedRPC, services.EventRPC, services.MQ}
	grids := make([][][]float64, len(modes))
	opts.forEach(len(modes), func(i int) {
		mode := modes[i]
		opts.logf("fig2: running %v chain", mode)
		eng := sim.NewEngine(opts.Seed)
		app := services.MustNewApp(eng, topology.BackpressureChain(mode))
		gen := workload.New(eng, app, workload.Constant{Value: 120}, workload.Mix{"req": 1})
		gen.Start()
		leaf := app.Service(topology.ChainTier(5))
		eng.At(3*sim.Minute, func() { leaf.SetCPUFactor(0.38) })
		eng.At(6*sim.Minute, func() { leaf.SetCPUFactor(1) })
		eng.RunUntil(minutes * sim.Minute)

		grid := make([][]float64, 5)
		for tier := 1; tier <= 5; tier++ {
			svc := app.Service(topology.ChainTier(tier))
			grid[tier-1] = svc.RespTime.Merged().PerWindowPercentile(minutes*sim.Minute, 99)
			// The rendered heat-map and Inflation averages treat a minute with
			// no completions as 0 ms (a starved tier reads as cold, exactly as
			// before); the NaN marker matters to live monitoring, not here.
			for m, v := range grid[tier-1] {
				if math.IsNaN(v) {
					grid[tier-1][m] = 0
				}
			}
		}
		grids[i] = grid
	})
	res := BackpressureResult{Grid: map[string][][]float64{}, Minutes: minutes}
	for i, mode := range modes {
		res.Grid[mode.String()] = grids[i]
	}
	return res
}

// Inflation reports, for one mode, each tier's p99 during the anomaly
// (minutes 3–5) relative to before it (minutes 0–2).
func (r BackpressureResult) Inflation(mode string) [5]float64 {
	var out [5]float64
	grid := r.Grid[mode]
	if grid == nil {
		return out
	}
	for tier := 0; tier < 5; tier++ {
		before := (grid[tier][0] + grid[tier][1] + grid[tier][2]) / 3
		during := (grid[tier][3] + grid[tier][4] + grid[tier][5]) / 3
		if before > 0 {
			out[tier] = during / before
		}
	}
	return out
}

// Render prints the three heat maps as aligned tables.
func (r BackpressureResult) Render() string {
	var b strings.Builder
	for _, mode := range []string{"nested-rpc", "event-rpc", "mq"} {
		grid := r.Grid[mode]
		if grid == nil {
			continue
		}
		fmt.Fprintf(&b, "Fig.2 — %s chain, per-tier p99 (ms) per minute (anomaly: min 3-6)\n", mode)
		fmt.Fprintf(&b, "%-6s", "tier")
		for m := 0; m < r.Minutes; m++ {
			fmt.Fprintf(&b, "%9s", fmt.Sprintf("m%d", m))
		}
		b.WriteString("\n")
		for tier := 0; tier < 5; tier++ {
			fmt.Fprintf(&b, "%-6s", fmt.Sprintf("t%d", tier+1))
			for m := 0; m < r.Minutes; m++ {
				fmt.Fprintf(&b, "%9.1f", grid[tier][m])
			}
			b.WriteString("\n")
		}
		inf := r.Inflation(mode)
		fmt.Fprintf(&b, "inflation during anomaly: t1=%.1fx t2=%.1fx t3=%.1fx t4=%.1fx t5=%.1fx\n\n",
			inf[0], inf[1], inf[2], inf[3], inf[4])
	}
	return b.String()
}
