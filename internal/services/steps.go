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

// sample draws one burst duration in milliseconds. It works on the concrete
// LogNormal value, never boxed into an interface, so a draw allocates
// nothing.
func (c Compute) sample(r *rand.Rand) float64 {
	switch {
	case c.CV < 0:
		return c.MeanMs
	case c.CV == 0:
		return stats.LogNormalFromMeanCV(c.MeanMs, 0.3).Sample(r)
	default:
		return stats.LogNormalFromMeanCV(c.MeanMs, c.CV).Sample(r)
	}
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
