package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/topology"
)

// quick returns smoke-scale options; experiments assert the paper's *shapes*
// even at this scale.
func quick() Options { return Options{Seed: 1, Scale: 0.25} }

// sequential is quick() on one worker. The figf1 grid (in
// TestResilienceParallelismInvariant) and the figr1 and figr2 Shapes tests
// are pinned to goldens sequentially; other tests pin the same goldens at
// Parallelism 4.
func sequential() Options {
	opts := quick()
	opts.Parallelism = 1
	return opts
}

func TestBackpressureShapes(t *testing.T) {
	r := RunBackpressure(quick())
	if len(r.Grid) != 3 {
		t.Fatalf("modes = %d", len(r.Grid))
	}
	nested := r.Inflation("nested-rpc")
	if nested[3] < 3 {
		t.Errorf("nested: tier4 inflation %.1fx, want ≥3x", nested[3])
	}
	if nested[1] > 1.5 || nested[2] > 1.5 {
		t.Errorf("nested: backpressure did not attenuate: %v", nested)
	}
	event := r.Inflation("event-rpc")
	if event[3] < 2 {
		t.Errorf("event: tier4 inflation %.1fx, want ≥2x", event[3])
	}
	mq := r.Inflation("mq")
	for tier := 0; tier < 4; tier++ {
		if mq[tier] > 1.5 {
			t.Errorf("mq: tier%d inflated %.1fx", tier+1, mq[tier])
		}
	}
	if mq[4] < 2 {
		t.Errorf("mq: throttled leaf should inflate: %v", mq)
	}
	if !strings.Contains(r.Render(), "nested-rpc") {
		t.Error("render missing nested-rpc section")
	}
}

func TestProfilingShapes(t *testing.T) {
	r := RunProfiling(quick())
	assertGolden(t, "testdata/fig4.golden", r.Render())
	for _, name := range []string{"post-storage", "user-timeline"} {
		pr, ok := r.Services[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		// Paper thresholds: 46.2% and 60.0%; ours must land mid-range.
		if pr.Threshold < 0.25 || pr.Threshold > 0.9 {
			t.Errorf("%s threshold = %.2f, want mid-range", name, pr.Threshold)
		}
		// Backpressure visible: >5x latency at the tightest limit.
		first, last := pr.Steps[0], pr.Steps[len(pr.Steps)-1]
		if first.ProxyP99Mean < last.ProxyP99Mean*5 {
			t.Errorf("%s: no clear backpressure (%.1f vs %.1f)", name, first.ProxyP99Mean, last.ProxyP99Mean)
		}
		if !last.Converged {
			t.Errorf("%s: sweep never converged", name)
		}
	}
}

func TestExplorationOverheadShapes(t *testing.T) {
	r, err := RunExploration(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The headline: ≥16x fewer samples and ≥128x less exploration time.
		if row.SampleRatio < 10 {
			t.Errorf("%s: sample ratio %.1fx too small", row.App, row.SampleRatio)
		}
		if row.TimeRatio < 128 {
			t.Errorf("%s: time ratio %.1fx, paper reports >128x", row.App, row.TimeRatio)
		}
		if row.UrsaSamples <= 0 || row.UrsaHours <= 0 {
			t.Errorf("%s: empty accounting %+v", row.App, row)
		}
	}
	if !strings.Contains(r.Render(), "Table V") {
		t.Error("render missing header")
	}
}

func TestAccuracyShapes(t *testing.T) {
	c, _ := AppCaseByName("social-network")
	r, err := RunAccuracy(quick(), c, []string{topology.UploadPost, topology.UpdateTimeline})
	if err != nil {
		t.Fatal(err)
	}
	for class, ratio := range r.Ratio {
		// Paper: mean estimated/measured between 0.96 and 1.05; allow a
		// wider band at smoke scale.
		if ratio < 0.8 || ratio > 1.3 {
			t.Errorf("%s: est/meas ratio %.2f out of range", class, ratio)
		}
		if len(r.Series[class]) == 0 {
			t.Errorf("%s: no accuracy points", class)
		}
	}
}

func TestControlPlaneShapes(t *testing.T) {
	r, err := RunControlPlane(quick())
	if err != nil {
		t.Fatal(err)
	}
	ursa, sinan := r.DeployMs["ursa"], r.DeployMs["sinan"]
	if ursa <= 0 || sinan <= 0 {
		t.Fatalf("missing deploy latencies: %+v", r.DeployMs)
	}
	// The paper's headline: Ursa's decisions are orders of magnitude
	// faster than Sinan's centralized model inference.
	if sinan < ursa*10 {
		t.Errorf("sinan (%.3fms) should be ≫ ursa (%.3fms)", sinan, ursa)
	}
	if auto := r.DeployMs["auto-a"]; auto > ursa*10 {
		t.Errorf("autoscaling (%.3f) should be at least as fast as ursa (%.3f)", auto, ursa)
	}
	if r.UpdateMs["ursa"] <= 0 {
		t.Error("ursa update latency missing")
	}
	if !strings.Contains(r.Render(), "Table VI") {
		t.Error("render missing header")
	}
}

func TestDiurnalShapes(t *testing.T) {
	r, err := RunDiurnal(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Services) == 0 {
		t.Fatal("no traces")
	}
	assertGolden(t, "testdata/fig13.golden", r.Render())
	// Ursa must scale at least one tracked service up and down with load.
	scaled := false
	for name := range r.Services {
		lo, hi := r.ScalingRange(name)
		if hi > lo {
			scaled = true
		}
	}
	if !scaled {
		t.Error("no service scaled under diurnal load")
	}
}

func TestAdaptationShapes(t *testing.T) {
	r, err := RunAdaptation(quick())
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "testdata/fig14.golden", r.Render())
	// Partial re-exploration must be much cheaper than a full one.
	if r.ReexploreSamples <= 0 || r.ReexploreSamples > 120 {
		t.Errorf("re-exploration samples = %d", r.ReexploreSamples)
	}
	// Both deployments hold the 10s SLA: the fraction of requests over the
	// target stays in the low percents (paper: 0.62% and 0.50%).
	if r.ViolationRateOriginal > 0.03 {
		t.Errorf("original request-violation rate %.2f%%", r.ViolationRateOriginal*100)
	}
	if r.ViolationRateUpdated > 0.03 {
		t.Errorf("updated request-violation rate %.2f%%", r.ViolationRateUpdated*100)
	}
	if len(r.Original) == 0 || len(r.Updated) == 0 {
		t.Fatal("missing latency samples")
	}
	// The lighter model must be visibly faster.
	xs, ys := CDF(r.Updated)
	if len(xs) != len(ys) || ys[len(ys)-1] != 1 {
		t.Error("CDF malformed")
	}
}

func TestComparisonShapesSocial(t *testing.T) {
	r, err := RunComparison(quick(), []string{"social-network"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 15 {
		t.Fatalf("cells = %d, want 15", len(r.Cells))
	}
	assertGolden(t, "testdata/fig11_social.golden", r.Render())
	for _, load := range []string{"constant", "dynamic", "skewed"} {
		ursa, _ := r.Cell("social-network", load, "ursa")
		autob, _ := r.Cell("social-network", load, "auto-b")
		firm, _ := r.Cell("social-network", load, "firm")
		// Ursa keeps violations low (paper: 0.1–8.5%).
		if ursa.ViolationRate > 0.15 {
			t.Errorf("%s: ursa violation rate %.1f%%", load, ursa.ViolationRate*100)
		}
		// Auto-b and Firm allocate substantially more than Ursa.
		if autob.AvgCPUs < ursa.AvgCPUs*1.2 {
			t.Errorf("%s: auto-b (%.0f) should allocate ≫ ursa (%.0f)", load, autob.AvgCPUs, ursa.AvgCPUs)
		}
		if firm.AvgCPUs < ursa.AvgCPUs*1.2 {
			t.Errorf("%s: firm (%.0f) should allocate ≫ ursa (%.0f)", load, firm.AvgCPUs, ursa.AvgCPUs)
		}
	}
	// Under dynamic load, default autoscaling suffers the most violations.
	ua, _ := r.Cell("social-network", "dynamic", "auto-a")
	ursa, _ := r.Cell("social-network", "dynamic", "ursa")
	if ua.ViolationRate <= ursa.ViolationRate {
		t.Errorf("dynamic: auto-a (%.1f%%) should violate more than ursa (%.1f%%)",
			ua.ViolationRate*100, ursa.ViolationRate*100)
	}
	if !strings.Contains(r.Render(), "Fig.11") {
		t.Error("render missing header")
	}
}

func TestAblationShapes(t *testing.T) {
	r, err := RunAblation(quick())
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "testdata/ablation.golden", r.Render())
	// The optimized percentile DP never costs more than the naive split.
	if r.EqualSplitFeasible && r.EqualSplitCPUs < r.BudgetCPUs-1e-9 {
		t.Errorf("equal split (%f) beat the DP (%f)", r.EqualSplitCPUs, r.BudgetCPUs)
	}
	if r.BudgetCPUs <= 0 {
		t.Fatal("budget solve failed")
	}
	// Removing the t-test must not reduce scaling actions (it exists to
	// absorb noise-induced flapping).
	if r.NoTTestActions < r.TTestActions {
		t.Errorf("no-ttest actions (%d) < ttest actions (%d)", r.NoTTestActions, r.TTestActions)
	}
	// Both exploration variants should deploy; threshold-off must not be
	// dramatically safer (it explores an unsafe region).
	if r.ThresholdOnViolation > 0.2 {
		t.Errorf("threshold-on violations %.1f%%", r.ThresholdOnViolation*100)
	}
	if !strings.Contains(r.Render(), "Ablation 1") {
		t.Error("render missing")
	}
}

func TestCorpusShapes(t *testing.T) {
	r, err := RunCorpus(quick(), CorpusParams{N: 3, Systems: []string{"ursa", "auto-a"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Topologies) != 3 {
		t.Fatalf("topologies = %d", len(r.Topologies))
	}
	assertGolden(t, "testdata/figc1.golden", r.Render())
	if len(r.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(r.Cells))
	}
	for _, topo := range r.Topologies {
		if topo.Services < 2 || topo.RPS <= 0 {
			t.Errorf("degenerate topology %+v", topo)
		}
	}
	if len(r.Verdicts) != 1 || r.Verdicts[0].Baseline != "auto-a" {
		t.Fatalf("verdicts: %+v", r.Verdicts)
	}
	v := r.Verdicts[0]
	if v.Wins+v.Ties+v.Losses != 3 {
		t.Errorf("verdict does not cover corpus: %+v", v)
	}
	if len(r.Worst) != 2 {
		t.Errorf("worst: %+v", r.Worst)
	}
	if !strings.Contains(r.Render(), "Fig.C1") {
		t.Error("render missing header")
	}
	// The JSON artifact is deterministic: same opts, same bytes.
	r2, err := RunCorpus(quick(), CorpusParams{N: 3, Systems: []string{"ursa", "auto-a"}})
	if err != nil {
		t.Fatal(err)
	}
	j1, err1 := r.JSON()
	j2, err2 := r2.JSON()
	if err1 != nil || err2 != nil {
		t.Fatalf("corpus JSON: %v / %v", err1, err2)
	}
	if string(j1) != string(j2) {
		t.Error("corpus JSON not reproducible for identical options")
	}
}

// TestExperimentErrorsReturned pins the error returns that replaced panics:
// an undeployable app case fails RunAccuracy and a Fig. R2 tenant deploy,
// and a result JSON that cannot encode (a NaN rate) fails CorpusResult.JSON
// and ScalingResult.JSON.
func TestExperimentErrorsReturned(t *testing.T) {
	bad := services.AppSpec{Name: "bad", Classes: []services.ClassSpec{{Name: "get", Entry: "missing"}}}
	if _, err := RunAccuracy(quick(), AppCase{Name: "bad", Spec: bad}, nil); err == nil {
		t.Error("RunAccuracy deployed an app whose class has no entry service")
	}
	opts := quick()
	if _, err := opts.runSunSystem(AppCase{Name: "bad", Spec: bad}, "auto-a", sim.Minute); err == nil {
		t.Error("figr2 deployed an app whose class has no entry service")
	}
	if _, err := (CorpusResult{Worst: []CorpusWorst{{ViolationRate: math.NaN()}}}).JSON(); err == nil {
		t.Error("CorpusResult.JSON encoded a NaN")
	}
	if _, err := (ScalingResult{NodeSweep: []ScalingCell{{ViolationRate: math.NaN()}}}).JSON(); err == nil {
		t.Error("ScalingResult.JSON encoded a NaN")
	}
}

// TestScalingShapes checks the Fig. S1 grid's shape and pins its simulated
// columns (admitted, rejected, fast_share, violation_rate, unschedulable)
// cell for cell against testdata/figs1.golden.
func TestScalingShapes(t *testing.T) {
	params := ScalingParams{Nodes: []int{8, 16}, Tenants: []int{1, 2}, FixedNodes: 16, FixedTenants: 2}
	r := RunScaling(quick(), params)
	if len(r.NodeSweep) != 2 || len(r.TenantSweep) != 2 {
		t.Fatalf("sweeps = %d/%d cells", len(r.NodeSweep), len(r.TenantSweep))
	}
	for _, c := range append(append([]ScalingCell{}, r.NodeSweep...), r.TenantSweep...) {
		if c.Admitted+c.Rejected == 0 {
			t.Errorf("cell nodes=%d tenants=%d admitted nothing and rejected nothing", c.Nodes, c.Tenants)
		}
		if c.Admitted > 0 && c.DecisionMs <= 0 {
			t.Errorf("cell nodes=%d tenants=%d: no decision latency recorded", c.Nodes, c.Tenants)
		}
	}
	// The fast path is on at fleet scale; a steady constant load must serve
	// a meaningful share of re-solves incrementally.
	last := r.TenantSweep[len(r.TenantSweep)-1]
	if last.Admitted > 0 && last.FastShare <= 0 {
		t.Errorf("fast_share = 0 with the fast path on")
	}
	if !strings.Contains(r.Render(), "Fig.S1") {
		t.Error("render missing header")
	}
	// Wall-clock fields are not reproducible, so the golden holds the
	// deterministic subset.
	var b strings.Builder
	row := func(sweep string, cells []ScalingCell) {
		for _, c := range cells {
			fmt.Fprintf(&b, "%s nodes=%d tenants=%d admitted=%d rejected=%d fast_share=%v violation_rate=%v unschedulable=%d\n",
				sweep, c.Nodes, c.Tenants, c.Admitted, c.Rejected, c.FastShare, c.ViolationRate, c.Unschedulable)
		}
	}
	row("node", r.NodeSweep)
	row("tenant", r.TenantSweep)
	assertGolden(t, "testdata/figs1.golden", b.String())
}

func TestCorpusBeats(t *testing.T) {
	meets := func(cpus float64) CorpusCell { return CorpusCell{ViolationRate: 0.01, AvgCPUs: cpus} }
	fails := func(v float64) CorpusCell { return CorpusCell{ViolationRate: v, AvgCPUs: 10} }
	if !corpusBeats(meets(10), fails(0.5)) {
		t.Error("meeting SLA must beat failing it")
	}
	if !corpusBeats(meets(8), meets(10)) {
		t.Error("meeting on fewer CPUs must win")
	}
	if corpusBeats(meets(10), meets(10.1)) {
		t.Error("within 2% CPUs is a tie")
	}
	if !corpusBeats(fails(0.2), fails(0.4)) || corpusBeats(fails(0.4), fails(0.2)) {
		t.Error("among failures, lower violation wins")
	}
}
