package services

import (
	"math"
	"reflect"
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/sim"
	"ursa/internal/trace"
)

// twoTierSpec: frontend computes 5 ms then calls backend (10 ms) over
// nested RPC; everything deterministic.
func twoTierSpec() AppSpec {
	return AppSpec{
		Name: "two-tier",
		Services: []ServiceSpec{
			{
				Name:            "frontend",
				Threads:         4,
				CPUs:            4,
				InitialReplicas: 1,
				Handlers: map[string][]Step{
					"get": Seq(Compute{MeanMs: 5, CV: -1}, Call{Service: "backend", Mode: NestedRPC}),
				},
			},
			{
				Name:            "backend",
				Threads:         4,
				CPUs:            4,
				InitialReplicas: 1,
				Handlers: map[string][]Step{
					"get": Seq(Compute{MeanMs: 10, CV: -1}),
				},
			},
		},
		Classes: []ClassSpec{{Name: "get", Entry: "frontend", SLAPercentile: 99, SLAMillis: 100}},
	}
}

// dropNet drops the first N intercepted sends, then delivers cleanly.
type dropNet struct {
	dropFirst int
	calls     int
}

func (f *dropNet) Intercept(src, dst string) (sim.Time, bool) {
	f.calls++
	return 0, f.calls <= f.dropFirst
}

// delayNet applies a fixed per-call delay sequence, then delays every later
// call by after (zero: delivers cleanly).
type delayNet struct {
	delays []sim.Time
	after  sim.Time
	calls  int
}

func (f *delayNet) Intercept(src, dst string) (sim.Time, bool) {
	f.calls++
	if f.calls <= len(f.delays) {
		return f.delays[f.calls-1], false
	}
	return f.after, false
}

func TestRetryRecoversDroppedRPC(t *testing.T) {
	eng := sim.NewEngine(1)
	app := MustNewApp(eng, twoTierSpec())
	app.SetResilience(ResiliencePolicy{TimeoutMs: 50, MaxRetries: 3, BackoffBaseMs: 10, BackoffMaxMs: 40, JitterFrac: 0.2})
	app.Net = &dropNet{dropFirst: 1}
	app.Inject("get")
	eng.RunUntil(sim.Second)

	if app.CompletedJobs() != 1 || app.FailedJobs() != 0 {
		t.Fatalf("completed=%d failed=%d, want 1/0", app.CompletedJobs(), app.FailedJobs())
	}
	be := app.Service("backend")
	if got := be.RPCRetries.Total(0, sim.Second); got != 1 {
		t.Fatalf("retries = %v, want 1", got)
	}
	if got := be.RPCErrors.Total(0, sim.Second); got != 1 {
		t.Fatalf("errors = %v, want 1", got)
	}
	if got := be.Availability(0, sim.Second); got != 0.5 {
		t.Fatalf("availability = %v, want 0.5 (1 of 2 attempts failed)", got)
	}
	// Latency ≈ 5 ms compute + 50 ms timeout + ~10 ms backoff + 10 ms retry.
	lat := app.E2E.Class("get").Between(0, math.MaxInt64)[0]
	if lat < 65 || lat > 90 {
		t.Fatalf("E2E latency %v ms, want ≈75 ms (timeout + backoff + retry)", lat)
	}
}

func TestRetriesExhaustedFailJob(t *testing.T) {
	eng := sim.NewEngine(1)
	app := MustNewApp(eng, twoTierSpec())
	app.SetResilience(ResiliencePolicy{TimeoutMs: 20, MaxRetries: 2, BackoffBaseMs: 5, BackoffMaxMs: 10, JitterFrac: 0})
	app.Net = &dropNet{dropFirst: 1 << 30} // drop everything
	app.Inject("get")
	eng.RunUntil(sim.Second)

	if app.CompletedJobs() != 0 || app.FailedJobs() != 1 {
		t.Fatalf("completed=%d failed=%d, want 0/1", app.CompletedJobs(), app.FailedJobs())
	}
	if got := app.Availability(); got != 0 {
		t.Fatalf("app availability = %v, want 0", got)
	}
	if rec := app.E2E.Class("get"); rec != nil && rec.Count(0, math.MaxInt64) != 0 {
		t.Fatalf("failed job produced %d E2E samples, want 0", rec.Count(0, math.MaxInt64))
	}
	be := app.Service("backend")
	if got := be.RPCAttempts.Total(0, sim.Second); got != 3 {
		t.Fatalf("attempts = %v, want 3 (1 + 2 retries)", got)
	}
	if got := be.Availability(0, sim.Second); got != 0 {
		t.Fatalf("backend availability = %v, want 0", got)
	}
}

func TestDropWithoutTimeoutHangs(t *testing.T) {
	// No resilience policy: a dropped message leaves the caller waiting
	// forever, exactly like an unprotected client.
	eng := sim.NewEngine(1)
	app := MustNewApp(eng, twoTierSpec())
	app.Net = &dropNet{dropFirst: 1 << 30}
	app.Inject("get")
	eng.RunUntil(sim.Second)

	if app.CompletedJobs()+app.FailedJobs() != 0 {
		t.Fatalf("job settled (completed=%d failed=%d); a drop without timeout must hang",
			app.CompletedJobs(), app.FailedJobs())
	}
	if got := app.Service("backend").RPCErrors.Total(0, sim.Second); got != 1 {
		t.Fatalf("errors = %v, want 1 (the unrecoverable drop)", got)
	}
}

func TestCrashReplicaFailsInflight(t *testing.T) {
	eng := sim.NewEngine(1)
	app := MustNewApp(eng, oneTierSpec(1))
	app.Inject("get")
	eng.RunUntil(5 * sim.Millisecond) // mid-burst (10 ms compute)
	svc := app.Service("api")
	var hook []Eviction
	app.OnEviction = func(evs []Eviction) { hook = evs }
	if !svc.CrashReplica(0) {
		t.Fatal("CrashReplica(0) found nothing to kill")
	}
	eng.RunUntil(sim.Second)

	if app.FailedJobs() != 1 || app.CompletedJobs() != 0 {
		t.Fatalf("completed=%d failed=%d, want 0/1", app.CompletedJobs(), app.FailedJobs())
	}
	if svc.Replicas() != 0 {
		t.Fatalf("replicas = %d, want 0 after crash", svc.Replicas())
	}
	if len(hook) != 1 || hook[0].Service != "api" || hook[0].Replicas != 1 {
		t.Fatalf("OnEviction payload = %+v", hook)
	}
	if n := svc.RespTime.Merged().Count(0, math.MaxInt64); n != 0 {
		t.Fatalf("crashed request left %d tier latency samples, want 0", n)
	}
}

func TestQueuedRequestsSurviveCrash(t *testing.T) {
	spec := oneTierSpec(1)
	spec.Services[0].Threads = 1 // second job must queue
	eng := sim.NewEngine(1)
	app := MustNewApp(eng, spec)
	app.Inject("get")
	app.Inject("get")
	eng.RunUntil(5 * sim.Millisecond)
	svc := app.Service("api")
	svc.CrashReplica(0)
	if svc.QueueLen() != 1 {
		t.Fatalf("queue len = %d after crash, want 1 (queued work survives)", svc.QueueLen())
	}
	svc.AddReplicaWarm(1, 0) // instant replacement
	eng.RunUntil(sim.Second)

	if app.CompletedJobs() != 1 || app.FailedJobs() != 1 {
		t.Fatalf("completed=%d failed=%d, want 1/1", app.CompletedJobs(), app.FailedJobs())
	}
}

func TestWarmReplicaRunsDerated(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := oneTierSpec(1)
	spec.Services[0].CPUs = 1 // one burst saturates the limit
	app := MustNewApp(eng, spec)
	svc := app.Service("api")
	svc.CrashReplica(0)
	// Replacement at 20% speed for 500 ms: the 10 ms burst takes 50 ms.
	svc.AddReplicaWarm(0.2, 500*sim.Millisecond)
	app.Inject("get")
	eng.RunUntil(sim.Second) // past warmup
	app.Inject("get")
	eng.RunUntil(2 * sim.Second)

	lats := app.E2E.Class("get").Between(0, math.MaxInt64)
	if len(lats) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(lats))
	}
	if math.Abs(lats[0]-50) > 1e-6 {
		t.Fatalf("warm-up latency = %v ms, want 50 ms (10 ms at 20%% speed)", lats[0])
	}
	if math.Abs(lats[1]-10) > 1e-6 {
		t.Fatalf("post-warm-up latency = %v ms, want 10 ms", lats[1])
	}
}

func TestEvictNodeFailsResidentsAndReleases(t *testing.T) {
	cl := cluster.New(cluster.BestFit, 8, 8)
	eng := sim.NewEngine(1)
	app, err := NewAppOnCluster(eng, twoTierSpec(), cl)
	if err != nil {
		t.Fatal(err)
	}
	// BestFit packs both 4-CPU replicas onto node-0.
	if cl.NodeByName("node-0").Used() != 8 {
		t.Fatalf("node-0 used = %v, want 8", cl.NodeByName("node-0").Used())
	}
	evs := app.EvictNode(cl.NodeByName("node-0"))
	if len(evs) != 2 || evs[0].Service != "frontend" || evs[1].Service != "backend" {
		t.Fatalf("evictions = %+v", evs)
	}
	if cl.TotalUsed() != 0 {
		t.Fatalf("cluster still holds %v CPUs after eviction", cl.TotalUsed())
	}
	if app.Service("frontend").Replicas() != 0 || app.Service("backend").Replicas() != 0 {
		t.Fatal("evicted services still report replicas")
	}
}

func TestAbandonedAttemptSpanExcludedFromCriticalPath(t *testing.T) {
	// The first frontend→backend attempt is delayed past the timeout; the
	// retry succeeds. The abandoned attempt still executes at the backend
	// and lands a span inside the trace (the frontend's 200 ms tail keeps
	// the job open) — that span must be flagged and must not inflate the
	// backend's critical-path share.
	spec := twoTierSpec()
	spec.Services[0].Handlers["get"] = Seq(
		Compute{MeanMs: 5, CV: -1},
		Call{Service: "backend", Mode: NestedRPC},
		Compute{MeanMs: 200, CV: -1},
	)
	eng := sim.NewEngine(1)
	app := MustNewApp(eng, spec)
	app.Tracer = trace.NewTracer(1, 0)
	app.SetResilience(ResiliencePolicy{TimeoutMs: 100, MaxRetries: 1, BackoffBaseMs: 10, BackoffMaxMs: 10, JitterFrac: 0})
	app.Net = &delayNet{delays: []sim.Time{150 * sim.Millisecond}}
	app.Inject("get")
	eng.RunUntil(sim.Second)

	if app.CompletedJobs() != 1 {
		t.Fatalf("completed = %d, want 1", app.CompletedJobs())
	}
	traces := app.Tracer.Traces()
	if len(traces) != 1 || !traces[0].Complete {
		t.Fatalf("traces = %d (complete=%v), want 1 complete", len(traces), len(traces) == 1 && traces[0].Complete)
	}
	abandoned, backendSpans := 0, 0
	for _, s := range traces[0].Spans {
		if s.Service == "backend" {
			backendSpans++
			if s.Abandoned {
				abandoned++
			}
		}
	}
	if backendSpans != 2 || abandoned != 1 {
		t.Fatalf("backend spans = %d (abandoned %d), want 2 with 1 abandoned", backendSpans, abandoned)
	}
	// Critical path counts only the successful attempt: ≈10 ms, not ≈20.
	bd := app.Tracer.CriticalBreakdown("get")
	if ms := bd["backend"].Millis(); math.Abs(ms-10) > 1 {
		t.Fatalf("backend critical share = %v ms, want ≈10 (abandoned span excluded)", ms)
	}
}

func TestFailedJobTraceIncomplete(t *testing.T) {
	eng := sim.NewEngine(1)
	app := MustNewApp(eng, twoTierSpec())
	app.Tracer = trace.NewTracer(1, 0)
	app.SetResilience(ResiliencePolicy{TimeoutMs: 20, MaxRetries: 1, BackoffBaseMs: 5, BackoffMaxMs: 5, JitterFrac: 0})
	app.Net = &dropNet{dropFirst: 1 << 30}
	app.Inject("get")
	eng.RunUntil(sim.Second)

	traces := app.Tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	if traces[0].Complete {
		t.Fatal("failed job's trace marked complete")
	}
	// The frontend span exists (its handler ran and aborted) and is
	// flagged abandoned.
	if len(traces[0].Spans) != 1 || !traces[0].Spans[0].Abandoned {
		t.Fatalf("spans = %+v, want one abandoned frontend span", traces[0].Spans)
	}
}

// ghostRun drives the job-lifetime scenario of TestGhostAttemptCannotReachReusedJob
// and returns the app after 200 ms. Job A's first attempt to slow is
// delayed past its 10 ms timeout when ghost is set; its retry completes A at
// 21 ms, and the late attempt then runs at slow from 51 ms as a ghost,
// sending an MQ branch of A's to sink. Job Q (one front burst) finishes at
// 1 ms, and job B, injected at 48 ms, overlaps the ghost at slow and sink.
// poolAtB reports the job free list's length just before B is injected.
func ghostRun(t *testing.T, ghost bool) (app *App, poolAtB int) {
	t.Helper()
	spec := AppSpec{
		Name: "ghost",
		Services: []ServiceSpec{
			{Name: "front", Threads: 8, CPUs: 4, InitialReplicas: 1, Handlers: map[string][]Step{
				"get":  Seq(Compute{MeanMs: 1, CV: -1}, Call{Service: "slow", Mode: NestedRPC}),
				"ping": Seq(Compute{MeanMs: 1, CV: -1}),
			}},
			{Name: "slow", Threads: 8, CPUs: 4, InitialReplicas: 1, Handlers: map[string][]Step{
				"get": Seq(Compute{MeanMs: 5, CV: -1}, Call{Service: "sink", Mode: MQ}),
			}},
			{Name: "sink", Threads: 8, CPUs: 4, InitialReplicas: 1, Handlers: map[string][]Step{
				"get": Seq(Compute{MeanMs: 3, CV: -1}),
			}},
		},
		Classes: []ClassSpec{
			{Name: "get", Entry: "front", SLAPercentile: 99, SLAMillis: 100},
			{Name: "ping", Entry: "front", SLAPercentile: 99, SLAMillis: 100},
		},
	}
	eng := sim.NewEngine(1)
	app = MustNewApp(eng, spec)
	app.Tracer = trace.NewTracer(1, 0)
	app.SetResilience(ResiliencePolicy{TimeoutMs: 10, MaxRetries: 1, BackoffBaseMs: 2, BackoffMaxMs: 2, JitterFrac: 0})
	net := &delayNet{}
	if ghost {
		net.delays = []sim.Time{50 * sim.Millisecond}
	}
	app.Net = net
	app.Inject("get")
	app.Inject("ping")
	eng.Schedule(48*sim.Millisecond, func() {
		poolAtB = len(app.jobPool)
		app.Inject("get")
	})
	eng.RunUntil(200 * sim.Millisecond)
	return app, poolAtB
}

// TestGhostAttemptCannotReachReusedJob pins the job lifetime rule: a job
// record is recycled only once it finished and no Request or rpcCall points
// at it. A timed-out attempt still executes at the callee after its job
// finished, and adds and retires a branch of that job, while later jobs
// reuse pooled records. The ghost must pin its own job, so job B — which
// would otherwise reuse A's record — keeps its branch count, completion time
// and spans exactly as in the same run without the ghost.
func TestGhostAttemptCannotReachReusedJob(t *testing.T) {
	app, poolAtB := ghostRun(t, true)
	clean, cleanPoolAtB := ghostRun(t, false)

	if got := app.Service("slow").RPCErrors.Total(0, sim.Second); got != 1 {
		t.Fatalf("slow RPC errors = %v, want the one timeout", got)
	}
	// The ghost ran at slow and sent its MQ branch to sink.
	if n, m := app.Service("sink").RespTime.Merged().Count(0, sim.Second), clean.Service("sink").RespTime.Merged().Count(0, sim.Second); n != m+1 {
		t.Fatalf("sink handled %d requests, want %d (the clean run's plus the ghost's branch)", n, m+1)
	}
	// Q's record was free for B in both runs; A's only without the ghost.
	if poolAtB != 1 || cleanPoolAtB != 2 {
		t.Fatalf("free jobs before B = %d (clean %d), want 1 (clean 2): the ghost must pin A", poolAtB, cleanPoolAtB)
	}
	// Two records serve the three jobs; the ghost keeps A's out for good.
	if len(app.jobPool) != 1 || len(clean.jobPool) != 2 {
		t.Fatalf("free jobs at end = %d (clean %d), want 1 (clean 2)", len(app.jobPool), len(clean.jobPool))
	}
	if app.CompletedJobs() != 3 || app.FailedJobs() != 0 {
		t.Fatalf("completed=%d failed=%d, want 3/0", app.CompletedJobs(), app.FailedJobs())
	}
	lats := app.E2E.Class("get").Between(0, sim.Second)
	want := []float64{21, 9} // A (timeout, 2 ms backoff, retry), then B
	if len(lats) != 2 || math.Abs(lats[0]-want[0]) > 1e-6 || math.Abs(lats[1]-want[1]) > 1e-6 {
		t.Fatalf("get latencies = %v ms, want %v", lats, want)
	}
	if b, cb := app.E2E.Class("get").Between(40*sim.Millisecond, sim.Second), clean.E2E.Class("get").Between(40*sim.Millisecond, sim.Second); !reflect.DeepEqual(b, cb) {
		t.Fatalf("B's latency = %v ms, want the clean run's %v", b, cb)
	}
	traceOf := func(a *App, start sim.Time) *trace.Trace {
		for _, tr := range a.Tracer.Traces() {
			if tr.Start == start {
				return tr
			}
		}
		t.Fatalf("no trace starts at %v", start)
		return nil
	}
	b, cb := traceOf(app, 48*sim.Millisecond), traceOf(clean, 48*sim.Millisecond)
	if !b.Complete || len(b.Spans) != 3 || !reflect.DeepEqual(b, cb) {
		t.Fatalf("B's trace = %+v\nwant the clean run's %+v", b, cb)
	}
}
