package services

import (
	"math"

	"ursa/internal/sim"
)

// NetInjector intercepts inter-service RPC delivery for fault injection.
// Implementations live outside this package (internal/faults); services only
// consults the hook on each resilient send.
type NetInjector interface {
	// Intercept reports the added delivery latency and whether the message
	// is dropped outright, for one src→dst RPC at the current simulated
	// time.
	Intercept(src, dst string) (delay sim.Time, drop bool)
}

// ResiliencePolicy is the client-side protection applied to every nested-
// and event-RPC in the application: a per-attempt timeout and bounded
// retries with exponential backoff and deterministic jitter. MQ deliveries
// are exempt — the broker owns durability there.
type ResiliencePolicy struct {
	// TimeoutMs bounds each delivery attempt; 0 disables timeouts (and with
	// them any recovery from dropped messages or crashed callees).
	TimeoutMs float64
	// MaxRetries bounds re-deliveries after the first attempt.
	MaxRetries int
	// BackoffBaseMs is the first retry's backoff; attempt k waits
	// base·2^(k−1), capped at BackoffMaxMs.
	BackoffBaseMs float64
	BackoffMaxMs  float64
	// JitterFrac spreads each backoff uniformly within ±frac of itself,
	// drawn from the sim RNG — deterministic for a fixed seed.
	JitterFrac float64
}

func (p *ResiliencePolicy) applyDefaults() {
	if p.TimeoutMs <= 0 {
		p.TimeoutMs = 1000
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.BackoffBaseMs <= 0 {
		p.BackoffBaseMs = 25
	}
	if p.BackoffMaxMs <= 0 {
		p.BackoffMaxMs = 1000
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
}

// SetResilience enables client-side RPC timeouts and retries for every
// nested- and event-RPC in the app. Zero-valued fields take defaults. Note
// that enabling the policy schedules a timeout event per RPC attempt, so a
// resilient run is not event-for-event identical to an unprotected one even
// when no fault ever fires — compare resilient runs with resilient runs.
func (a *App) SetResilience(p ResiliencePolicy) {
	p.applyDefaults()
	a.res = &p
	a.resRNG = a.Eng.RNG("resilience/" + a.Spec.Name)
}

// Resilience returns the active policy, or nil.
func (a *App) Resilience() *ResiliencePolicy { return a.res }

// backoffDelay computes the backoff before retry number `attempt` (1-based
// over completed attempts) with deterministic jitter.
func (a *App) backoffDelay(attempt int) sim.Time {
	p := a.res
	ms := p.BackoffBaseMs * math.Pow(2, float64(attempt-1))
	if ms > p.BackoffMaxMs {
		ms = p.BackoffMaxMs
	}
	if p.JitterFrac > 0 {
		ms *= 1 + p.JitterFrac*(2*a.resRNG.Float64()-1)
	}
	return sim.Millis2Time(ms)
}

// rpcCall is one logical nested- or event-RPC under the app's resilience
// policy and network injector: deliver an attempt (a pooled Request), arm
// its timeout, and retry with backoff until a response succeeds or the
// attempts run out. Its engine continuations are method values bound once
// per pooled rpcCall (tryFn) or per pooled Request (the per-attempt ones),
// so a call allocates nothing in steady state.
//
// Lifetime, the pooled-call rule of DESIGN.md §4f: refs counts the
// continuations that can still reach the call — a pending backoff, a
// WAN-delayed delivery, an armed timeout, and per sent attempt its
// admission and its response — plus the hold of a try in progress. The
// call is recycled once it has settled (done) and refs is zero. A
// continuation that died with a crashed replica keeps refs positive, so
// that call is left to the garbage collector. A continuation of an attempt
// that is no longer live (a late response, a ghost admission, the delayed
// delivery or timeout of a settled attempt) is recognised by its Request
// differing from live; stale attempts' Requests are never recycled, so the
// comparison can never match a reused object.
type rpcCall struct {
	app    *App
	src    *Service // caller, for the injector's edge
	target *Service

	// Every attempt's request is stamped from these.
	job      *Job
	class    string
	priority int
	fail     bool

	// The caller: a nested call resumes frame; an event call holds a daemon
	// slot on daemon and retires one job branch.
	frame  *frame
	daemon *Replica

	attempt int       // attempts launched so far
	live    *Request  // the in-flight attempt; nil while none is
	timer   sim.Event // the live attempt's armed timeout, if any
	// The live attempt's admission by the callee starts the response-wait
	// clock charged to a nested caller.
	admitted bool
	t0       sim.Time

	ok   *Request // the successful attempt, recycled with the call
	refs int
	done bool

	tryFn func()
}

// startCall launches a logical call from the handler running req. A nested
// call (f != nil) resumes f once it settles, with f.req.Failed set if the
// attempts ran out; an event call (daemon != nil) returns its daemon slot
// and retires one branch of req's job, failing the job on exhaustion. fail
// pre-marks every attempt as an application error (Call.ErrorProb): the
// callee rejects each resend too, so the call exhausts its retries.
func (a *App) startCall(req *Request, target *Service, class string, fail bool, f *frame, daemon *Replica) {
	c := a.getCall()
	c.src = req.svc
	c.target = target
	c.job = req.Job
	c.job.refs++
	c.class = class
	c.priority = req.Priority
	c.fail = fail
	c.frame = f
	c.daemon = daemon
	c.refs = 1 // try's hold
	c.try()
}

// getCall pops a recycled call or builds one with its method value bound.
func (a *App) getCall() *rpcCall {
	n := len(a.callPool)
	if n == 0 {
		c := &rpcCall{app: a}
		c.tryFn = c.try
		return c
	}
	c := a.callPool[n-1]
	a.callPool[n-1] = nil
	a.callPool = a.callPool[:n-1]
	return c
}

// release recycles a settled call with no continuation left, and its
// successful attempt's request with it, then drops the call's reference to
// its job.
func (c *rpcCall) release() {
	a, j := c.app, c.job
	if c.ok != nil {
		a.putRequest(c.ok)
	}
	*c = rpcCall{app: a, tryFn: c.tryFn}
	a.callPool = append(a.callPool, c)
	j.unref()
}

// unref drops one reference and recycles the call if it was the last one
// of a settled call. Every continuation ends with it; nothing may touch the
// call afterwards.
func (c *rpcCall) unref() {
	c.refs--
	if c.done && c.refs == 0 {
		c.release()
	}
}

// try launches the next delivery attempt: fresh request, network faults on
// the edge, delivery (now, later, or never), then the attempt's timeout.
// The caller holds one reference for try (startCall's, or the backoff
// event's), dropped at the end: a response can land synchronously inside
// Send and settle the whole call before try returns.
func (c *rpcCall) try() {
	a := c.app
	c.attempt++
	c.target.RPCAttempts.Inc(a.Eng.Now(), 1)
	rpc := a.getRequest(c.job)
	rpc.Class = c.class
	rpc.Priority = c.priority
	rpc.Failed = c.fail
	rpc.call = c
	c.live = rpc
	c.admitted = false
	dropped := false
	var delay sim.Time
	if a.Net != nil {
		delay, dropped = a.Net.Intercept(c.src.Name(), c.target.Name())
	}
	switch {
	case dropped:
		// Lost in the network: only the timeout can recover the call.
	case delay > 0:
		c.refs++
		a.Eng.Schedule(delay, rpc.deliverFn)
	default:
		c.send(rpc)
	}
	if a.res != nil && a.res.TimeoutMs > 0 {
		// Armed even when the attempt already settled inside Send, so the
		// event schedule does not depend on how fast the callee answered;
		// that timer fires as a no-op.
		c.refs++
		ev := a.Eng.Schedule(sim.Millis2Time(a.res.TimeoutMs), rpc.timeoutFn)
		if c.live == rpc {
			c.timer = ev
		}
	} else if dropped {
		c.target.RPCErrors.Inc(a.Eng.Now(), 1)
	}
	c.unref()
}

// send hands an attempt to the callee; its admission and its response each
// hold the call until they fire.
func (c *rpcCall) send(rpc *Request) {
	c.refs += 2
	c.target.Send(rpc, rpc.acceptFn)
}

// attemptDeliver is a WAN-delayed delivery. An attempt that timed out in
// transit is still delivered: the callee executes it as a ghost.
func (r *Request) attemptDeliver() {
	c := r.call
	c.send(r)
	c.unref()
}

// attemptAccepted starts the response-wait clock if r is still the live
// attempt; a ghost admission of an abandoned attempt changes nothing.
func (r *Request) attemptAccepted() {
	c := r.call
	if r == c.live {
		c.admitted = true
		c.t0 = c.app.Eng.Now()
	}
	c.unref()
}

// respond handles attempt r's response. An error response (the callee's
// handler aborted: its own downstream failed, or its replica crashed)
// retries; a success settles the call.
func (c *rpcCall) respond(r *Request) {
	if r != c.live {
		c.unref() // landed after the caller gave up on this attempt
		return
	}
	c.live = nil
	if c.timer != (sim.Event{}) {
		c.timer.Cancel()
		c.timer = sim.Event{}
		c.refs--
	}
	if r.Failed {
		c.target.RPCErrors.Inc(c.app.Eng.Now(), 1)
		c.retry()
	} else {
		c.ok = r
		c.settle(false)
	}
	c.unref()
}

// attemptTimeout gives up on attempt r if it is still live. The attempt may
// still be queued or running at the callee; flagging it abandoned keeps its
// late span out of the critical path.
func (r *Request) attemptTimeout() {
	c := r.call
	if r == c.live {
		c.live = nil
		c.timer = sim.Event{}
		r.abandoned = true
		c.target.RPCErrors.Inc(c.app.Eng.Now(), 1)
		c.retry()
	}
	c.unref()
}

// retry schedules the next attempt after backoff, or fails the call once
// the retries are spent (immediately without a policy).
func (c *rpcCall) retry() {
	a := c.app
	if a.res == nil || c.attempt > a.res.MaxRetries {
		c.settle(true)
		return
	}
	c.target.RPCRetries.Inc(a.Eng.Now(), 1)
	c.refs++
	a.Eng.Schedule(a.backoffDelay(c.attempt), c.tryFn)
}

// settle delivers the call's one outcome to its caller. A call whose
// attempt was dropped (or whose callee died) with no timeout configured
// never settles: it hangs, exactly like an unprotected client.
func (c *rpcCall) settle(failed bool) {
	c.done = true
	if f := c.frame; f != nil {
		if failed {
			f.req.Failed = true
		} else if c.admitted {
			*f.waitAcc += c.app.Eng.Now() - c.t0
		}
		f.advance()
		return
	}
	c.daemon.releaseDaemon()
	if failed {
		c.job.fail()
	}
	c.job.branchDone()
}
