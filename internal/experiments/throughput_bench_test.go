package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"ursa/internal/faults"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/topology"
	"ursa/internal/workload"
)

// scaledSocialNetwork is the paper's social-network app with every tier's
// replica count multiplied by k — the "one big run" the ROADMAP north star
// cares about, sized so the app digests k× the canonical 100 RPS.
func scaledSocialNetwork(k int) services.AppSpec {
	spec := topology.SocialNetwork()
	for i := range spec.Services {
		spec.Services[i].InitialReplicas *= k
		if spec.Services[i].MaxReplicas > 0 {
			spec.Services[i].MaxReplicas *= k
		}
	}
	return spec
}

// BenchmarkThroughput is the tracked single-run throughput headline: a
// 10×-scale social network at 1000 RPS, simulated for 2 minutes per
// iteration, reporting wall-clock events/sec and heap allocs per injected
// request — the rows BENCH_throughput.json records, so every future PR moves
// a visible number against a pinned baseline. "fused" (batched arrivals +
// pooled step frames) keeps its name so the row stays comparable with
// earlier reports. "resilient" runs the same app under Fig. F1's client
// policy (500 ms timeout, 3 retries) with every RPC delayed by a fixed 1 ms,
// so each call takes the pooled resilient path with a delayed delivery and
// an armed timeout.
func BenchmarkThroughput(b *testing.B) {
	b.Run("fused", func(b *testing.B) { benchThroughput(b, nil) })
	b.Run("resilient", func(b *testing.B) {
		benchThroughput(b, func(eng *sim.Engine, app *services.App) {
			app.SetResilience(*resiliencePolicy())
			faults.New(eng, app, nil, faults.Schedule{
				NetFaults: []faults.NetFault{{DelayMs: 1}},
			}).Start()
		})
	})
}

// benchThroughput runs BenchmarkThroughput's scenario, with setup (if any)
// applied to each fresh app before load starts.
func benchThroughput(b *testing.B, setup func(*sim.Engine, *services.App)) {
	const (
		scale   = 10
		rps     = 1000
		simTime = 2 * sim.Minute
	)
	var events uint64
	var jobs, allocs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i) + 1)
		app := services.MustNewApp(eng, scaledSocialNetwork(scale))
		if setup != nil {
			setup(eng, app)
		}
		gen := workload.New(eng, app, workload.Constant{Value: rps}, topology.SocialNetworkMix())
		gen.Start()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		eng.RunUntil(simTime)
		runtime.ReadMemStats(&m1)
		events += eng.Fired()
		jobs += uint64(app.InjectedJobs)
		allocs += m1.Mallocs - m0.Mallocs
	}
	b.StopTimer()
	if jobs == 0 {
		b.Fatal("no jobs injected")
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(allocs)/float64(jobs), "allocs/req")
}

// TestThroughputPathsPreserveFig2 is the experiment-level byte-identity pin
// for the fast execution paths (batched arrivals + pooled step frames): the
// full fig2 backpressure run (all three call modes, CPU throttling mid-run)
// must render to the SHA-256 digests in testdata/fig2_digests.golden, one
// per seed 1–20. The digests were captured from the reference paths the
// fast ones replaced, when both still existed and agreed byte for byte. Seed
// 1 must also render identically at Parallelism 4.
func TestThroughputPathsPreserveFig2(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	if raceEnabled {
		// The digests are deterministic; under race one seed is enough to
		// exercise the fast paths (incl. Parallelism 4) with the detector on
		// while keeping the package inside the test timeout.
		seeds = 1
	}
	data, err := os.ReadFile("testdata/fig2_digests.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(golden) != 20 {
		t.Fatalf("fig2_digests.golden holds %d seeds, want 20", len(golden))
	}
	for i, want := range golden[:seeds] {
		seed := int64(i + 1)
		render := RunBackpressure(Options{Seed: seed, Parallelism: 1}).Render()
		if got := fmt.Sprintf("%d %x", seed, sha256.Sum256([]byte(render))); got != want {
			t.Fatalf("fig2 render digest diverges from golden\ngot:  %s\nwant: %s", got, want)
		}
		if seed == 1 && RunBackpressure(Options{Seed: seed, Parallelism: 4}).Render() != render {
			t.Fatal("seed 1: fig2 render differs across Parallelism 1 vs 4")
		}
	}
}
