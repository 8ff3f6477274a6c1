package services

import (
	"fmt"

	"ursa/internal/sim"
	"ursa/internal/trace"
)

// frame is one execution of one handler step list. It carries the program
// counter (i), the downstream-wait accumulator and the completion state in
// one pooled struct, and every engine continuation is a method value bound
// once per frame lifetime — so in steady state a request executes its whole
// send→queue→serve→reply chain without allocating.
//
// Lifetime: frames are recycled through App.framePool. A frame is released
// only when it has completed AND refs — the number of outstanding callbacks
// that can still reach it (a CPU burst completion, a nested-RPC response, an
// ingress admission, a daemon grant, a resilient call's outcome) — has
// dropped to zero. A frame whose callback died with
// a crashed replica (cpuSched drops bursts on kill) keeps a positive refs
// count forever and is simply garbage-collected; it never re-enters the pool,
// so a recycled frame can never be reached by a stale continuation.
type frame struct {
	app   *App
	req   *Request
	steps []Step
	i     int // program counter into steps

	// Root-frame completion state, read by finish.
	svc     *Service
	rep     *Replica
	started sim.Time

	// wait accumulates time blocked on nested-RPC responses for this frame's
	// step list; waitAcc is where it is charged (&wait for root frames and
	// Par branches — branch waits fold into the parent as max, not sum).
	wait    sim.Time
	waitAcc *sim.Time

	// Par coordination: a parent frame waits for parRemaining branch frames,
	// folding their waits into parMax.
	parent       *frame
	parRemaining int
	parMax       sim.Time

	// In-flight fast-path nested RPC: the response-wait clock start
	// (stamped by accepted, read by rpcDone; see DESIGN.md §4f for the t0
	// reset/overwrite ordering).
	t0 sim.Time

	// The event RPC waiting for a daemon slot (daemonGranted sends it).
	evTarget *Service
	evClass  string
	evFail   bool

	refs     int
	finished bool

	// Bound once when the frame is first allocated; reused across pool
	// cycles. Taking a method value inline would allocate per use.
	advanceFn  func()
	acceptedFn func()
	finishFn   func()
}

// getFrame pops a recycled frame or builds one with its method values bound.
func (a *App) getFrame() *frame {
	n := len(a.framePool)
	if n == 0 {
		f := &frame{app: a}
		f.advanceFn = f.advance
		f.acceptedFn = f.accepted
		f.finishFn = f.finish
		return f
	}
	f := a.framePool[n-1]
	a.framePool[n-1] = nil
	a.framePool = a.framePool[:n-1]
	return f
}

// putFrame zeroes per-use state (keeping the bound method values) and
// returns the frame to the pool.
func (a *App) putFrame(f *frame) {
	f.req = nil
	f.steps = nil
	f.i = 0
	f.svc = nil
	f.rep = nil
	f.started = 0
	f.wait = 0
	f.waitAcc = nil
	f.parent = nil
	f.parRemaining = 0
	f.parMax = 0
	f.t0 = 0
	f.finished = false
	a.framePool = append(a.framePool, f)
}

// getRequest pops a recycled Request (zeroed) or allocates one, and points
// it at job j, taking one of j's references.
func (a *App) getRequest(j *Job) *Request {
	var r *Request
	if n := len(a.reqPool); n == 0 {
		r = newRequest()
	} else {
		r = a.reqPool[n-1]
		a.reqPool[n-1] = nil
		a.reqPool = a.reqPool[:n-1]
	}
	r.Job = j
	j.refs++
	return r
}

// putRequest zeroes a request (keeping its bound continuations) and
// recycles it. Only requests that settled cleanly are ever recycled (see
// frame.finish and rpcCall.release): a failed or abandoned request may still
// be referenced by a crashed replica's bookkeeping, a late resilience
// timeout, or a caller that gave up on it — so those are left to the
// garbage collector, and so is their job (see Job).
func (a *App) putRequest(r *Request) {
	j := r.Job
	*r = Request{requestFns: r.requestFns}
	a.reqPool = append(a.reqPool, r)
	if j != nil { // a request built outside the pool may carry no job
		j.unref()
	}
}

// exec runs steps from the current program counter until the frame blocks on
// an engine callback or completes. Synchronous steps (Spawn, MQ) fall
// through without touching the engine. A terminally failed request (a
// downstream call out of retries) skips the rest of its step list.
func (f *frame) exec() {
	a := f.app
	req := f.req
	for {
		if f.i == len(f.steps) || req.Failed {
			f.complete()
			return
		}
		switch st := f.steps[f.i].(type) {
		case computeStep:
			ms := st.sample(req.svc.rng)
			f.i++
			f.refs++
			req.replica.cpu.Run(ms/1e3, f.advanceFn)
			return
		case Call:
			target := a.mustService(st.Service)
			class := req.Class
			if st.Class != "" {
				class = st.Class
			}
			// One error draw per logical call (not per delivery attempt): an
			// application error is deterministic under retries.
			fail := st.ErrorProb > 0 && a.drawError(st.ErrorProb)
			switch st.Mode {
			case NestedRPC:
				f.i++
				if a.res == nil && a.Net == nil {
					// The response-wait clock starts at admission by the
					// downstream ingress; send-blocking before that charges
					// the caller's own response time (backpressure).
					rpc := a.getRequest(req.Job)
					rpc.Class = class
					rpc.Priority = req.Priority
					rpc.Failed = fail
					rpc.caller = f
					f.t0 = 0
					f.refs += 2 // rpcDone and accepted each hold the frame
					target.Send(rpc, f.acceptedFn)
				} else {
					f.refs++
					a.startCall(req, target, class, fail, f, nil)
				}
				return
			case EventRPC:
				// Block the worker until a daemon slot is granted, then
				// respond immediately while the daemon performs the send
				// (possibly blocking on the downstream window) and awaits
				// the response.
				f.i++
				f.refs++
				f.evTarget, f.evClass, f.evFail = target, class, fail
				req.replica.acquireDaemon(f)
				return
			case MQ:
				req.Job.add()
				mq := a.getRequest(req.Job)
				mq.Class = class
				mq.Priority = req.Priority
				mq.Failed = fail
				mq.doneBranch = true
				target.Enqueue(mq)
				f.i++
			default:
				panic(fmt.Sprintf("services: unknown call mode %v", st.Mode))
			}
		case Spawn:
			target := a.mustService(st.Service)
			a.injectAt(target, st.Class)
			f.i++
		case Par:
			if len(st.Branches) == 0 {
				f.i++
				continue
			}
			f.i++
			f.parRemaining = len(st.Branches)
			f.parMax = 0
			f.refs += len(st.Branches)
			for _, br := range st.Branches {
				c := a.getFrame()
				c.req = req
				c.steps = br
				c.parent = f
				c.waitAcc = &c.wait
				c.exec()
			}
			return
		default:
			panic(fmt.Sprintf("services: unknown step type %T", st))
		}
	}
}

// advance resumes the frame after an engine callback (CPU burst completion,
// resilient-call outcome).
func (f *frame) advance() {
	f.refs--
	f.exec()
}

// daemonGranted sends the pending event RPC once the handler's replica
// grants it a daemon slot, then resumes the handler: the daemon, not the
// worker, awaits the response and returns the slot when it lands.
func (f *frame) daemonGranted() {
	a := f.app
	req := f.req
	target, class, fail := f.evTarget, f.evClass, f.evFail
	f.evTarget, f.evClass, f.evFail = nil, "", false
	req.Job.add()
	if a.res == nil && a.Net == nil {
		rpc := a.getRequest(req.Job)
		rpc.Class = class
		rpc.Priority = req.Priority
		rpc.Failed = fail
		rpc.daemon = req.replica
		rpc.doneBranch = true
		target.Send(rpc, nil)
	} else {
		a.startCall(req, target, class, fail, nil, req.replica)
	}
	f.refs--
	f.exec()
}

// rpcDone resumes the frame after a fast-path nested-RPC response: propagate
// a terminal failure, charge the response wait, continue.
func (f *frame) rpcDone(rpc *Request) {
	f.refs--
	if rpc.Failed {
		f.req.Failed = true
	}
	*f.waitAcc += f.app.Eng.Now() - f.t0
	f.exec()
}

// accepted fires when the downstream ingress admits the fast-path nested
// RPC: start the response-wait clock. Writing t0 after a synchronous
// completion already consumed it is harmless: t0 is reset at the next call
// before it is read again.
func (f *frame) accepted() {
	f.refs--
	f.t0 = f.app.Eng.Now()
	f.maybeRelease()
}

// complete fires when the step list ran out (or the request terminally
// failed): fold a Par branch into its parent, or finish the root request.
// Each frame completes at most once — it has at most one outstanding
// continuation at any time, and a crash force-completes the request through
// req.finish without touching the frame.
func (f *frame) complete() {
	if f.finished {
		return
	}
	f.finished = true
	if p := f.parent; p != nil {
		w := f.wait
		f.maybeRelease()
		p.childDone(w)
		return
	}
	f.finish()
	f.maybeRelease()
}

// childDone folds one completed Par branch into this frame; the last branch
// charges the longest branch wait (branches overlap in time) and resumes.
func (f *frame) childDone(w sim.Time) {
	f.refs--
	if w > f.parMax {
		f.parMax = w
	}
	f.parRemaining--
	if f.parRemaining == 0 {
		*f.waitAcc += f.parMax
		f.exec()
	}
}

// finish completes the root request: metrics, span, worker release, onDone.
// The tier's measured response time excludes the time blocked on nested-RPC
// responses (Fig. 2's S0−R0 definition). finish is stored in req.finish so a
// crash can force-complete in-flight requests; the settled guard makes the
// eventual frame completion a no-op after that.
func (f *frame) finish() {
	req := f.req
	if req.settled {
		return // a crash already force-completed this request
	}
	req.settled = true
	s := f.svc
	rep := f.rep
	rep.untrack(req)
	now := f.app.Eng.Now()
	if !req.Failed {
		resp := now - req.arrival - f.wait
		if resp < 0 {
			resp = 0
		}
		s.RespTime.Record(now, req.Class, resp.Millis())
	}
	if tr := f.app.Tracer; tr != nil && req.Job != nil && req.Job.traceID != 0 {
		tr.AddSpan(req.Job.traceID, trace.Span{
			Service:        s.spec.Name,
			Class:          req.Class,
			Enqueued:       req.arrival,
			Started:        f.started,
			Finished:       now,
			DownstreamWait: f.wait,
			Abandoned:      req.Failed || req.abandoned,
		})
	}
	rep.busyWorkers--
	rep.maybeRetire()
	s.pump()
	// A resilient attempt belongs to its call, which recycles it (read the
	// owner first: runOnDone may settle the call and recycle req).
	owned := req.call != nil
	req.runOnDone()
	if !owned && !req.Failed && !req.abandoned {
		f.app.putRequest(req)
	}
}

// maybeRelease returns the frame to the pool once it has completed and no
// outstanding callback can reach it anymore.
func (f *frame) maybeRelease() {
	if f.finished && f.refs == 0 {
		f.app.putFrame(f)
	}
}
