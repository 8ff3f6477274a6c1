package services

import (
	"fmt"
	"math/rand"

	"ursa/internal/cluster"
	"ursa/internal/metrics"
	"ursa/internal/sim"
)

// Service is a running microservice: a pending-request queue shared by its
// replicas (standing in for the cluster load balancer, and for MQ-connected
// services literally the message queue), plus the service's metrics.
type Service struct {
	app  *App
	spec ServiceSpec
	rng  *rand.Rand
	// handlers are spec.Handlers compiled for execution (compileSteps).
	handlers map[string][]Step

	queue    reqQueue
	replicas []*Replica // active
	draining []*Replica
	rrNext   int

	pendingStarts int
	cpuFactor     float64 // throttling injection multiplier (1 = nominal)

	// Ingress flow-control state (active when spec.IngressCostMs > 0).
	ingressBusy int
	ingressWait sendQueue
	ingressRR   int

	// RespTime records the per-tier response time of every request handled
	// by the service, per request class: (completion − arrival) −
	// nested-RPC downstream wait, exactly the S0−R0 metric of Fig. 2.
	// Milliseconds. It is the service's only latency store; the all-class
	// reading is RespTime.Merged().
	RespTime *metrics.LatencyRecorder
	// Arrivals counts arriving requests per class (the per-class service
	// load the LPR controller divides by the threshold).
	Arrivals map[string]*metrics.CounterSeries
	// ArrivalsAll counts all arrivals.
	ArrivalsAll *metrics.CounterSeries
	// UtilSamples holds one CPU-utilisation sample (0..1) per metrics
	// window, written by the app's sampling ticker.
	UtilSamples *metrics.Windowed
	// AllocGauge tracks currently allocated CPUs across live replicas
	// (active + draining), for the Fig. 12 allocation accounting.
	AllocGauge *metrics.Gauge
	// RPCAttempts / RPCErrors / RPCRetries count resilient-client activity
	// against this service as the callee: delivery attempts, failures
	// (timeouts, drops, aborted handlers), and scheduled retries.
	RPCAttempts *metrics.CounterSeries
	RPCErrors   *metrics.CounterSeries
	RPCRetries  *metrics.CounterSeries

	lastBusy, lastCap       float64
	retiredBusy, retiredCap float64
}

func newService(app *App, spec ServiceSpec) *Service {
	spec.applyDefaults()
	s := &Service{
		app:         app,
		spec:        spec,
		rng:         app.Eng.RNG("svc/" + spec.Name),
		cpuFactor:   1,
		RespTime:    app.newLatencyRecorder(),
		Arrivals:    map[string]*metrics.CounterSeries{},
		ArrivalsAll: metrics.NewCounterSeries(app.window),
		UtilSamples: metrics.NewWindowed(app.window),
		AllocGauge:  metrics.NewGauge(app.Eng.Now(), 0),
		RPCAttempts: metrics.NewCounterSeries(app.window),
		RPCErrors:   metrics.NewCounterSeries(app.window),
		RPCRetries:  metrics.NewCounterSeries(app.window),
	}
	s.handlers = make(map[string][]Step, len(spec.Handlers))
	for class, steps := range spec.Handlers {
		s.handlers[class] = compileSteps(steps)
	}
	for i := 0; i < spec.InitialReplicas; i++ {
		s.addReplica()
	}
	return s
}

// Name reports the service name.
func (s *Service) Name() string { return s.spec.Name }

// Spec returns a copy of the (defaulted) service specification.
func (s *Service) Spec() ServiceSpec { return s.spec }

// Replicas reports the active replica count (excluding draining ones).
func (s *Service) Replicas() int { return len(s.replicas) + s.pendingStarts }

// AllocatedCPUs reports CPUs currently held (active + draining replicas).
func (s *Service) AllocatedCPUs() float64 { return s.AllocGauge.Value() }

// QueueLen reports the number of requests waiting for a worker.
func (s *Service) QueueLen() int { return s.queue.len() }

// QueueLenPriority reports queued requests of the given priority.
func (s *Service) QueueLenPriority(p int) int { return s.queue.lenPriority(p) }

// addReplica creates and activates a new replica immediately. With a bound
// cluster it first places the replica on a node; placement failure leaves
// the service at its current size and counts as an unschedulable event.
func (s *Service) addReplica() bool {
	r := newReplica(s)
	if cl := s.app.Cluster; cl != nil {
		var p cluster.Placement
		var err error
		if pl := s.app.Placer; pl != nil {
			p, err = pl.PlaceReplica(s.spec.Name, s.spec.CPUs)
		} else {
			p, err = cl.Place(s.spec.CPUs)
		}
		if err != nil {
			s.app.UnschedulableEvents++
			return false
		}
		r.placement = p
		if p.Node.CPUFactor() != 1 {
			r.applyCores() // land on a degraded node at its effective rate
		}
	}
	s.replicas = append(s.replicas, r)
	s.updateAlloc()
	s.drainIngress() // window capacity grew
	s.pump()
	return true
}

// AddReplicaWarm activates one new replica that starts cold: its CPU runs at
// factor × nominal for the warmup duration (cache fill, JIT, connection-pool
// ramp), then restores. The fault injector's crash-restart path uses this.
func (s *Service) AddReplicaWarm(factor float64, warmup sim.Time) bool {
	if !s.addReplica() {
		return false
	}
	r := s.replicas[len(s.replicas)-1]
	if factor > 0 && factor < 1 && warmup > 0 {
		r.warmFactor = factor
		r.applyCores()
		s.app.Eng.Schedule(warmup, func() {
			r.warmFactor = 1
			r.applyCores()
		})
	}
	return true
}

func (s *Service) updateAlloc() {
	live := float64(len(s.replicas)+len(s.draining)) * s.spec.CPUs
	s.AllocGauge.Set(s.app.Eng.Now(), live)
}

// SetReplicas scales the service to n active replicas. Scale-out honours
// StartupDelaySec; scale-in drains replicas gracefully (no new work, retire
// when idle). Draining replicas are reactivated before new ones are created.
func (s *Service) SetReplicas(n int) {
	if n < 1 {
		n = 1
	}
	if s.spec.MaxReplicas > 0 && n > s.spec.MaxReplicas {
		n = s.spec.MaxReplicas
	}
	cur := len(s.replicas) + s.pendingStarts
	switch {
	case n > cur:
		need := n - cur
		// Reactivate draining replicas first.
		for need > 0 && len(s.draining) > 0 {
			r := s.draining[len(s.draining)-1]
			s.draining = s.draining[:len(s.draining)-1]
			r.draining = false
			s.replicas = append(s.replicas, r)
			need--
		}
		for i := 0; i < need; i++ {
			if s.spec.StartupDelaySec > 0 {
				s.pendingStarts++
				s.app.Eng.Schedule(sim.Seconds2Time(s.spec.StartupDelaySec), func() {
					s.pendingStarts--
					s.addReplica()
				})
			} else if !s.addReplica() {
				break // cluster out of capacity
			}
		}
		s.updateAlloc()
		s.pump()
	case n < cur:
		drop := cur - n
		// Prefer cancelling pending starts implicitly by draining active
		// replicas; pending starts still arrive but the next SetReplicas
		// call (controllers run periodically) corrects any overshoot.
		for drop > 0 && len(s.replicas) > 0 {
			last := s.replicas[len(s.replicas)-1]
			s.replicas = s.replicas[:len(s.replicas)-1]
			last.draining = true
			s.draining = append(s.draining, last)
			last.maybeRetire()
			drop--
		}
		if s.rrNext >= len(s.replicas) {
			s.rrNext = 0
		}
		if s.ingressRR >= len(s.replicas) {
			s.ingressRR = 0
		}
		s.updateAlloc()
	}
}

// finishRetire removes a fully drained replica and preserves its CPU
// accounting integrals.
func (s *Service) finishRetire(r *Replica) {
	for i, d := range s.draining {
		if d == r {
			s.draining = append(s.draining[:i], s.draining[i+1:]...)
			break
		}
	}
	busy, cap := r.cpu.snapshot()
	s.retiredBusy += busy
	s.retiredCap += cap
	if cl := s.app.Cluster; cl != nil {
		cl.Release(r.placement)
	}
	s.updateAlloc()
}

// SetCPUFactor throttles (or restores) the CPU limit of every replica to
// factor × nominal CPUs — the Fig. 2 anomaly-injection knob.
func (s *Service) SetCPUFactor(factor float64) {
	if factor <= 0 {
		panic("services: SetCPUFactor needs factor > 0")
	}
	s.cpuFactor = factor
	for _, r := range s.replicas {
		r.applyCores()
	}
	for _, r := range s.draining {
		r.applyCores()
	}
}

// CrashReplica crash-kills the idx-th active replica (no drain; in-flight
// requests fail). It reports whether a replica was killed, and notifies the
// app's OnEviction hook so a manager can re-place the lost capacity.
func (s *Service) CrashReplica(idx int) bool {
	if idx < 0 || idx >= len(s.replicas) {
		return false
	}
	s.crashReplica(s.replicas[idx])
	s.app.notifyEviction([]Eviction{{Service: s.spec.Name, Replicas: 1}})
	return true
}

// evictOn crash-kills every replica resident on node n (active and
// draining), returning the placements that were released.
func (s *Service) evictOn(n *cluster.Node) []cluster.Placement {
	var victims []*Replica
	for _, r := range s.replicas {
		if r.placement.Node == n {
			victims = append(victims, r)
		}
	}
	for _, r := range s.draining {
		if r.placement.Node == n {
			victims = append(victims, r)
		}
	}
	var released []cluster.Placement
	for _, r := range victims {
		released = append(released, s.crashReplica(r))
	}
	return released
}

// crashReplica kills r instantly — the simulation analogue of a container
// dying with its node. Work on its CPU is dropped, in-flight requests fail
// (the connection reset a caller observes), requests still queued at the
// service level survive for the remaining replicas, and the placement is
// released back to the cluster.
func (s *Service) crashReplica(r *Replica) cluster.Placement {
	for i, a := range s.replicas {
		if a == r {
			s.replicas = append(s.replicas[:i], s.replicas[i+1:]...)
			break
		}
	}
	for i, d := range s.draining {
		if d == r {
			s.draining = append(s.draining[:i], s.draining[i+1:]...)
			break
		}
	}
	if s.rrNext >= len(s.replicas) {
		s.rrNext = 0
	}
	if s.ingressRR >= len(s.replicas) {
		s.ingressRR = 0
	}
	r.dead = true
	r.retired = true // maybeRetire must never re-run retirement accounting
	r.draining = false
	r.cpu.kill()
	busy, cap := r.cpu.snapshot()
	s.retiredBusy += busy
	s.retiredCap += cap
	// Admission bursts running on this replica died with its CPU; return
	// their flow-control slots so the ingress window doesn't leak.
	s.ingressBusy -= r.ingressInflight
	r.ingressInflight = 0
	// Fail in-flight handlers. Iterate over a snapshot: finish untracks.
	victims := append([]*Request(nil), r.inflight...)
	for _, q := range victims {
		if q.settled {
			continue
		}
		q.Failed = true
		q.abandoned = true
		q.finish()
	}
	released := r.placement
	if cl := s.app.Cluster; cl != nil {
		cl.Release(r.placement)
	}
	r.placement = cluster.Placement{}
	s.updateAlloc()
	s.pump()
	s.drainIngress()
	return released
}

// Availability reports the fraction of resilient RPC attempts against this
// service that succeeded over [from, to): 1 − errors/attempts. 1 when the
// service saw no resilient attempts.
func (s *Service) Availability(from, to sim.Time) float64 {
	att := s.RPCAttempts.Total(from, to)
	if att <= 0 {
		return 1
	}
	return 1 - s.RPCErrors.Total(from, to)/att
}

// Send delivers an RPC request through the service's ingress stage. If the
// flow-control window is full, the request (and the caller's worker or
// daemon thread with it) waits until the receiver admits it; admission then
// costs IngressCostMs of the receiver's CPU. accepted (optional) fires at
// admission — callers use it to start their "waiting for the downstream
// response" clock, so send-blocking is charged to the *sender's* measured
// response time, which is precisely the RPC backpressure of §III.
// With IngressCostMs == 0 the request is enqueued immediately.
func (s *Service) Send(r *Request, accepted func()) {
	if s.spec.IngressCostMs <= 0 {
		s.Enqueue(r)
		if accepted != nil {
			accepted()
		}
		return
	}
	r.accepted = accepted
	if s.ingressBusy < s.ingressCapacity() && s.hasIngressReplica() {
		s.admit(r)
		return
	}
	s.ingressWait.push(r)
}

// ingressCapacity is the total flow-control window across active replicas.
func (s *Service) ingressCapacity() int {
	n := len(s.replicas)
	if n < 1 {
		n = 1
	}
	return s.spec.IngressWindow * n
}

// IngressQueueLen reports senders currently blocked on the window.
func (s *Service) IngressQueueLen() int { return s.ingressWait.len() }

// admit runs r's admission burst on the next ingress replica; r.admitted
// continues once it completes.
func (s *Service) admit(r *Request) {
	s.ingressBusy++
	rep := s.pickIngressReplica()
	rep.ingressInflight++
	r.ingress = rep
	if r.admitFn == nil {
		r.admitFn = r.admitted // a request built outside the pool
	}
	rep.cpu.Run(s.spec.IngressCostMs/1e3, r.admitFn)
}

// admitted finishes r's ingress admission: free the window slot, enqueue r,
// notify the sender, and admit the next blocked sender. The accepted
// callback is read before Enqueue: a handler that completes synchronously
// recycles r inside it.
func (r *Request) admitted() {
	rep := r.ingress
	s := rep.svc
	accepted := r.accepted
	r.ingress, r.accepted = nil, nil
	rep.ingressInflight--
	s.ingressBusy--
	s.Enqueue(r)
	if accepted != nil {
		accepted()
	}
	s.drainIngress()
}

func (s *Service) pickIngressReplica() *Replica {
	// Round-robin over active replicas, independent of worker placement:
	// use the current cursor, then advance — so replica 0 takes its fair
	// share starting from the very first admission after any scale event.
	if len(s.replicas) == 0 {
		// All replicas draining (transient during scale-in): use one of
		// them; scaling code keeps at least one replica live.
		return s.draining[0]
	}
	idx := s.ingressRR
	if idx >= len(s.replicas) {
		idx = 0
	}
	s.ingressRR = (idx + 1) % len(s.replicas)
	return s.replicas[idx]
}

func (s *Service) drainIngress() {
	for s.ingressWait.len() > 0 && s.ingressBusy < s.ingressCapacity() && s.hasIngressReplica() {
		s.admit(s.ingressWait.pop())
	}
}

// hasIngressReplica reports whether any replica — active or draining — can
// run ingress work. False only after a crash wiped the service out; ordinary
// scale-in always keeps at least one live replica, so in fault-free runs
// this never gates admission.
func (s *Service) hasIngressReplica() bool {
	return len(s.replicas) > 0 || len(s.draining) > 0
}

// Enqueue delivers a request to the service.
func (s *Service) Enqueue(r *Request) {
	now := s.app.Eng.Now()
	r.arrival = now
	r.svc = s
	cs, ok := s.Arrivals[r.Class]
	if !ok {
		cs = metrics.NewCounterSeries(s.app.window)
		s.Arrivals[r.Class] = cs
	}
	cs.Inc(now, 1)
	s.ArrivalsAll.Inc(now, 1)
	s.queue.push(r)
	s.pump()
}

// pump assigns queued requests to free workers, round-robin over replicas.
func (s *Service) pump() {
	for s.queue.len() > 0 {
		rep := s.pickReplica()
		if rep == nil {
			return
		}
		req := s.queue.pop()
		s.start(rep, req)
	}
}

func (s *Service) pickReplica() *Replica {
	n := len(s.replicas)
	if n == 0 {
		return nil
	}
	for i := 0; i < n; i++ {
		idx := (s.rrNext + i) % n
		if s.replicas[idx].freeWorkers() > 0 {
			s.rrNext = (idx + 1) % n
			return s.replicas[idx]
		}
	}
	return nil
}

// start runs a request's handler on a worker of rep.
func (s *Service) start(rep *Replica, req *Request) {
	steps, ok := s.handlers[req.Class]
	if !ok {
		panic(fmt.Sprintf("services: %s has no handler for class %q", s.spec.Name, req.Class))
	}
	rep.busyWorkers++
	req.replica = rep
	rep.track(req)
	f := s.app.getFrame()
	f.req = req
	f.steps = steps
	f.svc = s
	f.rep = rep
	f.started = s.app.Eng.Now()
	f.waitAcc = &f.wait
	req.finish = f.finishFn
	f.exec()
}

// CPUAccounting reports the service's cumulative CPU accounting: busy
// core-seconds actually consumed and capacity core-seconds provisioned,
// summed over all replicas past and present. Utilisation over an interval is
// Δbusy/Δcapacity between two snapshots.
func (s *Service) CPUAccounting() (busy, capacity float64) {
	busy, capacity = s.retiredBusy, s.retiredCap
	for _, r := range s.replicas {
		b, c := r.cpu.snapshot()
		busy += b
		capacity += c
	}
	for _, r := range s.draining {
		b, c := r.cpu.snapshot()
		busy += b
		capacity += c
	}
	return busy, capacity
}

// sampleUtilization computes the service-wide utilisation since the previous
// call (busy core-seconds over capacity core-seconds), and resets the
// accounting window. The app's sampling ticker calls this once per window.
func (s *Service) sampleUtilization() float64 {
	busy, capacity := s.CPUAccounting()
	db, dc := busy-s.lastBusy, capacity-s.lastCap
	s.lastBusy, s.lastCap = busy, capacity
	if dc <= 0 {
		return 0
	}
	return db / dc
}
