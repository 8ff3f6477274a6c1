package services

import "ursa/internal/sim"

// Job is one end-to-end unit of measured work: a client request plus every
// asynchronous continuation it triggers within the same request class. Its
// latency (start → last outstanding branch done) is what the end-to-end SLA
// constrains.
//
// Lifetime: jobs are recycled through App.jobPool. A job is released only
// when it has finished AND refs — the number of Requests and rpcCalls that
// still point at it — has dropped to zero. A Request gives up its reference
// when it is recycled and an rpcCall when it is released, so a request that
// is never recycled (a ghost attempt, an abandoned or crash-failed handler)
// pins its job for the garbage collector: whatever that request still does
// reaches its own finished job, never a reused record.
type Job struct {
	Class    string
	Priority int
	Start    sim.Time

	app         *App
	traceID     uint64
	outstanding int
	refs        int
	finished    bool
	failed      bool
}

// getJob pops a recycled job (zeroed) or allocates one.
func (a *App) getJob() *Job {
	n := len(a.jobPool)
	if n == 0 {
		return &Job{app: a}
	}
	j := a.jobPool[n-1]
	a.jobPool[n-1] = nil
	a.jobPool = a.jobPool[:n-1]
	return j
}

// unref drops one Request's or rpcCall's reference and recycles the job if
// it was the last one of a finished job. Nothing may touch the job after.
func (j *Job) unref() {
	j.refs--
	if j.refs == 0 && j.finished {
		a := j.app
		*j = Job{app: a}
		a.jobPool = append(a.jobPool, j)
	}
}

// add registers one more outstanding branch.
func (j *Job) add() { j.outstanding++ }

// fail marks the job terminally failed: a branch exhausted its RPC retries
// or died with a crashed replica. The job still completes when its last
// branch retires, but is counted against availability instead of yielding an
// E2E latency sample.
func (j *Job) fail() { j.failed = true }

// branchDone retires one branch and completes the job at zero. The caller
// holds a reference, so the job is never recycled here.
func (j *Job) branchDone() {
	j.outstanding--
	if j.outstanding < 0 {
		panic("services: job branch accounting went negative")
	}
	if j.outstanding == 0 && !j.finished {
		j.finished = true
		now := j.app.Eng.Now()
		if j.failed {
			j.app.failedJobs++
			if j.app.Tracer != nil {
				j.app.Tracer.FailJob(j.traceID, now)
			}
		} else {
			j.app.E2E.Record(now, j.Class, (now - j.Start).Millis())
			j.app.completedJobs++
			if j.app.Tracer != nil {
				j.app.Tracer.EndJob(j.traceID, now)
			}
		}
	}
}

// Request is one invocation of one service (a single tier's view of a job).
type Request struct {
	Job      *Job
	Class    string
	Priority int

	// Failed marks a terminally failed request: its handler aborted because
	// a downstream call exhausted its retries, or its replica crashed.
	Failed bool

	arrival sim.Time
	svc     *Service
	replica *Replica

	// Who hears of the completion, in runOnDone's order: the resilient call
	// this request is one attempt of, the frame blocked on it as a fast-path
	// nested RPC, or else the daemon slot it holds (fast-path event RPC)
	// and, with doneBranch, its job branch.
	call       *rpcCall
	caller     *frame
	daemon     *Replica
	doneBranch bool

	// Ingress admission state (Service.Send): the replica whose CPU runs
	// the admission burst and the sender's accepted callback.
	ingress  *Replica
	accepted func()

	// abandoned marks a request whose caller gave up waiting (timeout) or
	// died; its span must not enter critical-path accounting.
	abandoned bool
	// settled guards finish against double completion (normal completion
	// racing a crash).
	settled bool
	// slot is this request's index in its replica's inflight list.
	slot int
	// finish completes the handler: metrics, span, worker release,
	// runOnDone. Stored so a crash can force-complete in-flight requests.
	finish func()

	requestFns
}

// requestFns are a request's engine continuations, bound once when the
// Request is first allocated and kept across pool cycles (see putRequest),
// so scheduling one allocates nothing. Each carries the request's identity:
// a resilient call tells a stale attempt's continuation from the live one
// by comparing the request with its live attempt.
type requestFns struct {
	admitFn   func() // ingress admission burst done (Service.admit)
	acceptFn  func() // resilient attempt admitted by the callee
	deliverFn func() // resilient attempt's WAN-delayed delivery
	timeoutFn func() // resilient attempt's timeout
}

// newRequest allocates a request with its continuations bound.
func newRequest() *Request {
	r := &Request{}
	r.admitFn = r.admitted
	r.acceptFn = r.attemptAccepted
	r.deliverFn = r.attemptDeliver
	r.timeoutFn = r.attemptTimeout
	return r
}

// runOnDone fires the request's completion notification.
func (r *Request) runOnDone() {
	switch {
	case r.call != nil:
		r.call.respond(r)
	case r.caller != nil:
		r.caller.rpcDone(r)
	default:
		if d := r.daemon; d != nil {
			r.daemon = nil
			d.releaseDaemon()
		}
		if r.doneBranch {
			r.jobBranchDone()
		}
	}
}

// jobBranchDone completes one job branch, propagating a terminal failure of
// this request to the job.
func (r *Request) jobBranchDone() {
	if r.Failed {
		r.Job.fail()
	}
	r.Job.branchDone()
}
