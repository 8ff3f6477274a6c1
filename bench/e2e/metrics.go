package main

import (
	"math"
	"sort"
)

// metricKind says how a metric is compared between two commits.
type metricKind int

const (
	// endToEnd metrics are costs a user of the simulator sees. A change may
	// worsen the median by at most the metric's bound.
	endToEnd metricKind = iota
	// simulated metrics are deterministic outcomes of the simulated run for
	// a seed; any change at all is a behaviour change (bound 0).
	simulated
	// perLayer metrics have no bound. Those the untraced runs measure are
	// their median; the rest come from the traced run.
	perLayer
)

// metricDef describes one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"; empty when neither is better
	kind   metricKind
	bound  float64 // endToEnd only: allowed relative worsening of the median
	// listed metrics are emitted for every workload and make up the summary
	// line: the end-to-end ones without tracing, the per-layer ones with it.
	// BENCHMARK.json lists exactly these.
	listed bool
}

// metricDefs is every metric the benchmark reports, in print order. The
// bounds of listed end-to-end metrics are those of BENCHMARK.json.
var metricDefs = []metricDef{
	{"setup_s", "s", "lower", endToEnd, 0.25, true},
	{"peak_live_heap_mb", "MB", "lower", endToEnd, 0.10, true},
	{"allocs_per_job", "count", "lower", endToEnd, 0.02, true},

	{"sla_violation_pct", "%", "lower", simulated, 0, false},
	{"avg_alloc_cpus", "cpus", "lower", simulated, 0, false},
	{"failed_jobs_pct", "%", "lower", simulated, 0, false},
	{"recovery_min", "min", "lower", simulated, 0, false},

	// Host-time throughput and decision latency swing 5-15% between runs on
	// a shared host, more than the 10% bound they would need, so they are
	// reported per layer (README.md has the measured spreads).
	{"jobs_per_s", "1/s", "higher", perLayer, 0, true},
	{"decision_us_p50", "us", "lower", perLayer, 0, true},
	{"decision_us_p90", "us", "lower", perLayer, 0, false},

	{"sim.cpu_pct", "%", "lower", perLayer, 0, true},
	{"services.cpu_pct", "%", "lower", perLayer, 0, true},
	{"workload.cpu_pct", "%", "lower", perLayer, 0, true},
	{"metrics.cpu_pct", "%", "lower", perLayer, 0, true},
	{"stats.cpu_pct", "%", "lower", perLayer, 0, true},
	{"core.cpu_pct", "%", "lower", perLayer, 0, true},
	{"cluster.cpu_pct", "%", "lower", perLayer, 0, true},
	{"region.cpu_pct", "%", "lower", perLayer, 0, true},
	{"runtime.cpu_pct", "%", "lower", perLayer, 0, true},
	{"other.cpu_pct", "%", "lower", perLayer, 0, false},
	{"core.setup_profiling_pct", "%", "lower", perLayer, 0, true},
	{"core.setup_explore_pct", "%", "lower", perLayer, 0, true},
	{"core.setup_admit_pct", "%", "lower", perLayer, 0, true},
	{"spec.setup_pct", "%", "lower", perLayer, 0, true},

	{"experiments.ursa_profiles_s", "s", "lower", perLayer, 0, true},
	{"services.deploy_ms", "ms", "lower", perLayer, 0, false},
	{"core.admit_ms", "ms", "lower", perLayer, 0, true},
	{"sim.minute_ms_p50", "ms", "lower", perLayer, 0, true},
	{"sim.minute_ms_max", "ms", "lower", perLayer, 0, true},
	{"core.tick_us_p50", "us", "lower", perLayer, 0, true},
	{"core.solve_us_p50", "us", "lower", perLayer, 0, true},
	{"core.recalc_us_p50", "us", "lower", perLayer, 0, false},
	{"core.evict_ms", "ms", "lower", perLayer, 0, false},
	{"cluster.place_us_p50", "us", "lower", perLayer, 0, false},
	{"metrics.query_us_p50", "us", "lower", perLayer, 0, true},
	{"bench.trace_overhead_pct", "%", "lower", perLayer, 0, true},

	{"run_s", "s", "lower", perLayer, 0, false},
	{"decision_samples", "count", "", perLayer, 0, false},
	{"sim.events", "count", "lower", perLayer, 0, false},
	{"sim.events_per_job", "count", "lower", perLayer, 0, true},
	{"sim.pending_max", "count", "lower", perLayer, 0, true},
	{"workload.jobs_injected", "count", "", perLayer, 0, false},
	{"services.jobs_completed", "count", "", perLayer, 0, false},
	{"services.backlog_jobs", "count", "", perLayer, 0, false},
	{"services.rpc_retries", "count", "", perLayer, 0, false},
	{"services.rpc_errors", "count", "", perLayer, 0, false},
	{"services.unschedulable", "count", "", perLayer, 0, false},
	{"core.ticks", "count", "", perLayer, 0, false},
	{"core.solves", "count", "", perLayer, 0, false},
	{"core.fast_share", "ratio", "", perLayer, 0, false},
	{"core.tenants_admitted", "count", "", perLayer, 0, false},
	{"cluster.places", "count", "", perLayer, 0, false},
	{"cluster.place_failures", "count", "", perLayer, 0, false},
	{"region.evicted", "count", "", perLayer, 0, false},
	{"region.spilled", "count", "", perLayer, 0, false},
	{"region.wan_hops", "count", "", perLayer, 0, false},
}

// percentile returns the p-th percentile (0..100) of vals, interpolating
// linearly between the two nearest ranks; 0 for no values.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// quartiles returns the first quartile, median and third quartile of vals
// by the same rule as Python's statistics.quantiles(vals, n=4) (the
// "exclusive" method), so spreads match what the statistics module reports.
// A single value is its own quartiles; no values give zeros.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return vals[0], vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}
