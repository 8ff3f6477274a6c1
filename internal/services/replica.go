package services

import "ursa/internal/cluster"

// Replica is one container instance of a service: a worker thread pool, a
// daemon pool for event-driven continuations, and a processor-sharing CPU.
type Replica struct {
	svc       *Service
	cpu       *cpuSched
	placement cluster.Placement

	threads     int
	busyWorkers int

	daemons     int
	busyDaemons int
	daemonWait  []*frame // handlers blocked until a daemon slot frees

	// inflight tracks requests whose handlers are running on this replica,
	// so a crash can fail them; ingressInflight counts admission bursts on
	// this replica's CPU, so a crash can return their flow-control slots.
	inflight        []*Request
	ingressInflight int

	// warmFactor derates the CPU limit while a restarted replica warms up
	// (1 = fully warm).
	warmFactor float64

	draining bool
	retired  bool
	dead     bool
}

func newReplica(s *Service) *Replica {
	cores := s.spec.CPUs * s.cpuFactor
	return &Replica{
		svc:        s,
		cpu:        newCPUSched(s.app.Eng, cores),
		threads:    s.spec.Threads,
		daemons:    s.spec.Daemons,
		warmFactor: 1,
	}
}

// applyCores re-derives the CPU limit from the service throttle factor, the
// warm-up derating, and the resident node's interference factor.
func (r *Replica) applyCores() {
	if r.dead {
		return
	}
	cores := r.svc.spec.CPUs * r.svc.cpuFactor * r.warmFactor
	if n := r.placement.Node; n != nil {
		cores *= n.CPUFactor()
	}
	r.cpu.SetCores(cores)
}

// freeWorkers reports available worker slots.
func (r *Replica) freeWorkers() int { return r.threads - r.busyWorkers }

// track registers a request whose handler runs on this replica.
func (r *Replica) track(req *Request) {
	req.slot = len(r.inflight)
	r.inflight = append(r.inflight, req)
}

// untrack removes a tracked request in O(1) by swapping the last entry into
// its slot.
func (r *Replica) untrack(req *Request) {
	i := req.slot
	if i < 0 || i >= len(r.inflight) || r.inflight[i] != req {
		return
	}
	last := len(r.inflight) - 1
	r.inflight[i] = r.inflight[last]
	r.inflight[i].slot = i
	r.inflight[last] = nil
	r.inflight = r.inflight[:last]
	req.slot = -1
}

// acquireDaemon grants f's pending event RPC a daemon slot, now or once a
// slot frees (f.daemonGranted). The holder returns the slot through
// releaseDaemon exactly once. While a handler waits here its worker thread
// stays blocked — the source of the milder event-driven backpressure.
func (r *Replica) acquireDaemon(f *frame) {
	if r.busyDaemons < r.daemons {
		r.busyDaemons++
		f.daemonGranted()
		return
	}
	r.daemonWait = append(r.daemonWait, f)
}

// releaseDaemon returns a daemon slot, handing it straight to the first
// waiting handler if there is one.
func (r *Replica) releaseDaemon() {
	if r.dead {
		// A branch outlived its crashed replica; the slot and any waiting
		// handlers died with the container.
		return
	}
	if len(r.daemonWait) > 0 {
		next := r.daemonWait[0]
		copy(r.daemonWait, r.daemonWait[1:])
		r.daemonWait[len(r.daemonWait)-1] = nil
		r.daemonWait = r.daemonWait[:len(r.daemonWait)-1]
		next.daemonGranted()
		return
	}
	r.busyDaemons--
	r.maybeRetire()
}

// idle reports whether the replica holds no work at all.
func (r *Replica) idle() bool {
	return r.busyWorkers == 0 && r.busyDaemons == 0 && len(r.daemonWait) == 0
}

// maybeRetire finalises a draining replica once it is fully idle.
func (r *Replica) maybeRetire() {
	if !r.draining || r.retired || !r.idle() {
		return
	}
	r.retired = true
	r.svc.finishRetire(r)
}
