// Package services simulates cloud-native microservices on a discrete-event
// engine: replicas with worker thread pools and processor-sharing CPUs,
// three inter-service communication modes (nested RPC, event-driven RPC and
// message queues), request classes and priorities, and dynamic replica
// scaling. It is the stand-in for the paper's Kubernetes + Dapr testbed and
// reproduces the phenomena Ursa depends on — queueing tails, CPU-utilisation
// thresholds, and RPC backpressure (§III).
package services

import (
	"fmt"
	"math/rand"

	"ursa/internal/stats"
)

// CallMode selects the inter-service communication method (Fig. 1).
type CallMode int

const (
	// NestedRPC is a synchronous call: the calling worker blocks until the
	// downstream response arrives. This is the mode that propagates
	// backpressure most strongly.
	NestedRPC CallMode = iota
	// EventRPC is an event-driven call: the handler hands the call to a
	// bounded daemon pool and responds to its own caller immediately. The
	// handler blocks only while acquiring a daemon slot, which yields the
	// milder backpressure of Fig. 2(b).
	EventRPC
	// MQ appends a message to the downstream service's queue and continues
	// immediately; the producer is never affected by consumer slowness.
	MQ
)

// String implements fmt.Stringer.
func (m CallMode) String() string {
	switch m {
	case NestedRPC:
		return "nested-rpc"
	case EventRPC:
		return "event-rpc"
	case MQ:
		return "mq"
	default:
		return fmt.Sprintf("CallMode(%d)", int(m))
	}
}

// Step is one operation in a service handler. Handlers are slices of steps
// executed in order by a worker thread.
type Step interface{ isStep() }

// Compute burns CPU for a log-normally distributed duration with the given
// mean (milliseconds) and coefficient of variation. The burst runs on the
// replica's processor-sharing CPU, so co-located requests and CPU-limit
// throttling stretch it. CV = 0 selects the default of 0.3; a negative CV
// makes the burst deterministic (exactly MeanMs), which tests use to check
// timing invariants.
type Compute struct {
	MeanMs float64
	CV     float64
}

func (Compute) isStep() {}

// computeStep is a Compute step compiled for execution (compileSteps): the
// log-normal parameters are derived once, when the app is built, with the
// LogNormalFromMeanCV arithmetic a per-draw derivation would repeat, so
// every draw returns the same bits.
type computeStep struct {
	meanMs float64
	fixed  bool // exactly meanMs, no draw
	ln     stats.LogNormal
}

func (computeStep) isStep() {}

// compile derives c's computeStep. CV = 0 selects the default 0.3 and a
// negative CV a fixed burst. A non-positive mean is compiled as fixed only
// so that building never panics: Validate rejects it on every handler a job
// can reach, so such a step never executes.
func (c Compute) compile() computeStep {
	switch {
	case c.CV < 0 || c.MeanMs <= 0:
		return computeStep{meanMs: c.MeanMs, fixed: true}
	case c.CV == 0:
		return computeStep{meanMs: c.MeanMs, ln: stats.LogNormalFromMeanCV(c.MeanMs, 0.3)}
	default:
		return computeStep{meanMs: c.MeanMs, ln: stats.LogNormalFromMeanCV(c.MeanMs, c.CV)}
	}
}

// sample draws one burst duration in milliseconds. It works on the concrete
// LogNormal value, never boxed into an interface, so a draw allocates
// nothing.
func (b computeStep) sample(r *rand.Rand) float64 {
	if b.fixed {
		return b.meanMs
	}
	return b.ln.Sample(r)
}

// compileSteps copies a handler's step list for execution, with every
// Compute, Par branches included, replaced by its computeStep.
func compileSteps(steps []Step) []Step {
	out := make([]Step, len(steps))
	for i, st := range steps {
		switch s := st.(type) {
		case Compute:
			out[i] = s.compile()
		case Par:
			branches := make([][]Step, len(s.Branches))
			for j, br := range s.Branches {
				branches[j] = compileSteps(br)
			}
			out[i] = Par{Branches: branches}
		default:
			out[i] = st
		}
	}
	return out
}

// Call invokes another service.
type Call struct {
	Service string
	Mode    CallMode
	// Class optionally overrides the request class used to pick the
	// downstream handler (and under which the downstream tier accounts the
	// request). Empty means "inherit the current class".
	Class string
	// ErrorProb, when > 0, is the probability the callee rejects this
	// logical call with an application error: the request is delivered but
	// its handler aborts immediately, so the error propagates exactly like
	// any other downstream failure (nested-RPC callers abort, event/MQ
	// branches fail their job) and client-side retries burn through — an
	// application-level error is not recovered by resending. Draws come from
	// a dedicated per-app RNG stream, so handlers without error rates are
	// byte-identical to builds without this field.
	ErrorProb float64
}

func (Call) isStep() {}

// Spawn enqueues (via MQ) a new measured job of a different request class at
// the target service. This models flows like "uploading a post triggers an
// asynchronous update-timeline job with its own SLA" (§VI).
type Spawn struct {
	Service string
	Class   string
}

func (Spawn) isStep() {}

// Par executes branches concurrently within the same worker (parallel
// outbound calls / parallel compute), completing when every branch does.
type Par struct {
	Branches [][]Step
}

func (Par) isStep() {}

// Seq is a convenience constructor for a handler body.
func Seq(steps ...Step) []Step { return steps }
