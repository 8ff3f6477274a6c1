package core

import (
	"sync"
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/sim"
	"ursa/internal/workload"
)

// arbiterProfiles explores the mini app once per test binary: every arbiter
// test deploys clones of the same exploration output, like the fleet
// experiments do.
var (
	arbiterExploreOnce sync.Once
	arbiterProfileSet  map[string]*Profile
)

func arbiterProfiles(t *testing.T) map[string]*Profile {
	t.Helper()
	arbiterExploreOnce.Do(func() {
		e := miniExplorer()
		profiles, _, err := e.ExploreAll(fastExploreConfig())
		if err != nil {
			t.Fatal(err)
		}
		arbiterProfileSet = profiles
	})
	if arbiterProfileSet == nil {
		t.Skip("exploration failed in an earlier test")
	}
	return CloneProfiles(arbiterProfileSet)
}

func arbiterTenantSpec(name string, t *testing.T) TenantSpec {
	return TenantSpec{
		Name:     name,
		Spec:     miniExplorer().Spec,
		Profiles: arbiterProfiles(t),
		Mix:      workload.Mix{"req": 1},
		TotalRPS: 150,
	}
}

// TestArbiterAdmitsAndRefreshes drives three tenants behind one arbiter on a
// shared cluster: all admit with a positive certified demand, the steady-state
// refresh loop re-solves each tenant against live loads, and — with the fast
// path on by default — most of those re-solves are incremental.
func TestArbiterAdmitsAndRefreshes(t *testing.T) {
	eng := sim.NewEngine(42)
	cl := cluster.New(cluster.WorstFit, 64, 64, 64, 64)
	arb := NewArbiter(eng, cl)

	for _, name := range []string{"tenant-00", "tenant-01", "tenant-02"} {
		ten, err := arb.Admit(arbiterTenantSpec(name, t))
		if err != nil {
			t.Fatalf("admit %s: %v", name, err)
		}
		if ten.AdmittedCPUs <= 0 {
			t.Fatalf("admit %s: non-positive certified demand %v", name, ten.AdmittedCPUs)
		}
		gen := workload.New(eng, ten.App, workload.Constant{Value: ten.TotalRPS}, ten.Mix)
		gen.Start()
	}
	if _, err := arb.Admit(arbiterTenantSpec("tenant-00", t)); err == nil {
		t.Fatal("duplicate tenant admitted")
	}
	arb.StartRefresh(0)
	eng.RunUntil(12 * sim.Minute)
	arb.Stop()

	if got := len(arb.Tenants()); got != 3 {
		t.Fatalf("tenants = %d, want 3", got)
	}
	if arb.Tenant("tenant-01") == nil {
		t.Fatal("Tenant lookup by name failed")
	}
	if arb.AdmissionRejects != 0 {
		t.Fatalf("AdmissionRejects = %d on an uncontended cluster", arb.AdmissionRejects)
	}
	if share := arb.FastShare(); share <= 0.5 {
		t.Fatalf("FastShare = %v; steady-state refreshes should mostly hit the fast path", share)
	}
	if ms := arb.AvgDecisionMillis(); ms <= 0 {
		t.Fatalf("AvgDecisionMillis = %v", ms)
	}
	for _, ten := range arb.Tenants() {
		if ten.App.CompletedJobs() == 0 {
			t.Fatalf("tenant %s completed no jobs", ten.Name)
		}
	}
}

// TestArbiterRejectsOverCommit pins admission control: a tenant whose
// certified demand exceeds the cluster's free capacity is rejected with
// ErrAdmission, before any app is created, leaving the cluster untouched.
func TestArbiterRejectsOverCommit(t *testing.T) {
	eng := sim.NewEngine(42)
	cl := cluster.New(cluster.WorstFit, 0.5)
	arb := NewArbiter(eng, cl)

	_, err := arb.Admit(arbiterTenantSpec("tenant-00", t))
	if err == nil {
		t.Fatal("admission succeeded on a 0.5-CPU cluster")
	}
	if _, ok := err.(ErrAdmission); !ok {
		t.Fatalf("error = %v (%T), want ErrAdmission", err, err)
	}
	if arb.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", arb.AdmissionRejects)
	}
	if cl.TotalUsed() != 0 || len(arb.Tenants()) != 0 {
		t.Fatalf("rejected admission left residue: used=%v tenants=%d", cl.TotalUsed(), len(arb.Tenants()))
	}
}

// TestArbiterFailNodeFanout drives the fleet crash path: a node failure fans
// eviction out across tenants, each tenant's manager re-places its lost
// replicas, and recovery returns the node's capacity to the index.
func TestArbiterFailNodeFanout(t *testing.T) {
	eng := sim.NewEngine(7)
	cl := cluster.New(cluster.WorstFit, 16, 16, 16)
	arb := NewArbiter(eng, cl)

	for _, name := range []string{"tenant-00", "tenant-01"} {
		ten, err := arb.Admit(arbiterTenantSpec(name, t))
		if err != nil {
			t.Fatalf("admit %s: %v", name, err)
		}
		workload.New(eng, ten.App, workload.Constant{Value: ten.TotalRPS}, ten.Mix).Start()
	}
	arb.StartRefresh(0)
	eng.RunUntil(5 * sim.Minute)

	replicas := func() int {
		total := 0
		for _, ten := range arb.Tenants() {
			for _, name := range ten.App.ServiceNames() {
				total += ten.App.Service(name).Replicas()
			}
		}
		return total
	}
	before := replicas()
	availBefore := cl.AvailableCapacity()
	var evicted int
	eng.Schedule(0, func() { evicted = arb.FailNode("node-0") })
	eng.RunUntil(5*sim.Minute + sim.Second)
	if evicted == 0 {
		t.Fatal("node failure evicted nothing; test needs replicas on node-0")
	}
	if got := cl.AvailableCapacity(); got >= availBefore {
		t.Fatalf("AvailableCapacity %v did not drop from %v after node failure", got, availBefore)
	}
	if after := replicas(); after < before {
		t.Fatalf("arbiter did not re-place evicted capacity: %d replicas before, %d after (%d evicted)",
			before, after, evicted)
	}

	arb.RecoverNode("node-0")
	if got := cl.AvailableCapacity(); got != availBefore {
		t.Fatalf("AvailableCapacity %v after recovery, want %v", got, availBefore)
	}
	arb.Stop()
}
