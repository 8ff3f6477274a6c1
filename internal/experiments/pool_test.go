package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
)

// poolCase is a deliberately tiny application so cache/pool tests explore in
// milliseconds instead of re-running the full social network.
func poolCase(name string) AppCase {
	spec := services.AppSpec{
		Name: name,
		Services: []services.ServiceSpec{{
			Name: "api", Threads: 2048, CPUs: 1, InitialReplicas: 2,
			IngressCostMs: 0.1, IngressWindow: 32,
			Handlers: map[string][]services.Step{
				"req": services.Seq(services.Compute{MeanMs: 5, CV: 0.4}),
			},
		}},
		Classes: []services.ClassSpec{{Name: "req", Entry: "api", SLAPercentile: 99, SLAMillis: 60}},
	}
	return AppCase{Name: name, Spec: spec, Mix: map[string]float64{"req": 1}, TotalRPS: 60}
}

// TestForEachCoversAllIndices checks the pool runs every task exactly once
// at several worker counts, including n < workers and workers = 1.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, par := range []int{1, 2, 7, 64} {
		o := &Options{Parallelism: par}
		const n = 37
		hits := make([]int, n)
		var mu sync.Mutex
		o.forEach(n, func(i int) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallelism %d: task %d ran %d times", par, i, h)
			}
		}
	}
}

// TestForEachPropagatesPanic checks a worker panic surfaces in the caller,
// matching the sequential failure mode.
func TestForEachPropagatesPanic(t *testing.T) {
	o := &Options{Parallelism: 4}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic was swallowed by the pool")
		}
	}()
	o.forEach(8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

// TestProfileCacheConcurrent hammers ursaProfiles for the same app from many
// goroutines: the exploration must run exactly once (singleflight) and every
// caller must get an equal but independent deep copy. Run with -race.
func TestProfileCacheConcurrent(t *testing.T) {
	c := poolCase("pool-cache-app")
	opts := Options{Seed: 1, Scale: 0.25}
	opts.defaults()

	const goroutines = 16
	var wg sync.WaitGroup
	raw := make([]map[string]float64, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			o := opts
			_, p, _, err := o.ursaProfiles(c)
			if err != nil {
				t.Error(err)
				return
			}
			// Mutate the returned copy aggressively: later callers must not
			// see it.
			first := map[string]float64{}
			for name, prof := range p {
				if len(prof.Points) > 0 {
					for cls, v := range prof.Points[0].LPR {
						first[name+"/"+cls] = v
					}
				}
			}
			raw[g] = first
			for _, prof := range p {
				for i := range prof.Points {
					for cls := range prof.Points[i].LPR {
						prof.Points[i].LPR[cls] = -1
					}
				}
			}
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(raw[0], raw[g]) {
			t.Fatalf("goroutine %d saw different profile content:\n%v\nvs\n%v", g, raw[0], raw[g])
		}
	}
	for _, v := range raw[0] {
		if v < 0 {
			t.Fatal("a goroutine observed another goroutine's mutation: cache returned shared state")
		}
	}
	// And a fresh fetch after all that vandalism is still pristine.
	o := opts
	_, p, _, err := o.ursaProfiles(c)
	if err != nil {
		t.Fatal(err)
	}
	for name, prof := range p {
		for i := range prof.Points {
			for cls, v := range prof.Points[i].LPR {
				if v < 0 {
					t.Fatalf("cache entry %s point %d class %s polluted by caller mutation", name, i, cls)
				}
			}
		}
	}
}

// TestComparisonParallelDeterminism asserts the §VII-E grid merges to
// identical cells and byte-identical rendered tables at Parallelism 1 and 8.
// DecisionMs is wall-clock (non-deterministic even sequentially) and is not
// part of any rendered table, so it is zeroed before comparing cells.
func TestComparisonParallelDeterminism(t *testing.T) {
	apps := []string{"social-network"}
	systems := []string{"ursa", "firm", "auto-a"}

	seqOpts := Options{Seed: 1, Scale: 0.25, Parallelism: 1}
	parOpts := Options{Seed: 1, Scale: 0.25, Parallelism: 8}
	seq, errSeq := RunComparison(seqOpts, apps, systems)
	par, errPar := RunComparison(parOpts, apps, systems)
	if errSeq != nil || errPar != nil {
		t.Fatal(errSeq, errPar)
	}

	if len(seq.Cells) == 0 || len(seq.Cells) != len(par.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i], par.Cells[i]
		a.DecisionMs, b.DecisionMs = 0, 0
		if a != b {
			t.Errorf("cell %d differs:\nsequential: %+v\nparallel:   %+v", i, seq.Cells[i], par.Cells[i])
		}
	}
	if sr, pr := seq.Render(), par.Render(); sr != pr {
		t.Errorf("rendered tables differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", sr, pr)
	}
}

// TestComparisonFilterSkipsTraining asserts systems excluded by the filter
// are never prepared: running the grid for auto-a only must not train Sinan
// or Firm prototypes for the app.
func TestComparisonFilterSkipsTraining(t *testing.T) {
	c := poolCase("pool-filter-app")
	opts := Options{Seed: 1, Scale: 0.25}
	opts.defaults()

	jobs := comparisonJobs(8*sim.Minute, []string{c.Name}, []string{"auto-a"})
	if len(jobs) != 0 {
		t.Fatalf("custom case is not part of AppCases; got %d jobs", len(jobs))
	}

	// Drive the lazy construction path directly: only auto-a is requested.
	mgr, err := opts.newManagerFor(c, "auto-a")
	if err != nil || mgr.Name() != "auto-a" {
		t.Fatalf("newManagerFor returned %v, %v", mgr, err)
	}
	protoMu.Lock()
	defer protoMu.Unlock()
	for _, sys := range []string{"sinan", "firm"} {
		key := fmt.Sprintf("%s/%s/%d/%.3f", sys, c.Name, opts.Seed, opts.Scale)
		if _, ok := protoCache[key]; ok {
			t.Errorf("%s prototype was trained despite being filtered out", sys)
		}
	}
}

// TestExplorationErrorReturned checks that a case whose SLA no allocation
// meets is an error, not a panic: NewManager returns the exploration error
// (again on a second call, served by the exploration cache), and a corpus
// cell records the failed deploy.
func TestExplorationErrorReturned(t *testing.T) {
	c := poolCase("pool-infeasible-app")
	c.Spec.Classes[0].SLAMillis = 1
	opts := Options{Seed: 1, Scale: 0.25}
	for i := 0; i < 2; i++ {
		if _, err := opts.NewManager(c, "ursa"); err == nil || !strings.Contains(err.Error(), "no feasible LPR point") {
			t.Fatalf("call %d: NewManager error = %v, want no feasible LPR point", i, err)
		}
	}
	cell := runCorpusCell(opts, c, "ursa", 4*sim.Minute)
	if !cell.DeployFailed || cell.ViolationRate != 1 {
		t.Fatalf("corpus cell = %+v, want a failed deploy", cell)
	}
}

// TestFreshManagersPerCell asserts clone-based construction: two managers
// for the same (app, system) must be distinct instances, so no deployment
// can leak warm state into the next.
func TestFreshManagersPerCell(t *testing.T) {
	c := poolCase("pool-fresh-app")
	opts := Options{Seed: 1, Scale: 0.25}
	opts.defaults()
	for _, sys := range []string{"ursa", "auto-a", "auto-b"} {
		a, errA := opts.newManagerFor(c, sys)
		b, errB := opts.newManagerFor(c, sys)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", sys, errA, errB)
		}
		if a == b {
			t.Errorf("%s: newManagerFor returned the same instance twice", sys)
		}
	}
}
