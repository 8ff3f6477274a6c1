package services

// reqQueue is the pending-request queue of a service: strict priority order
// (lower Priority value first), FIFO within a priority. For MQ-connected
// services this *is* the message queue — high-priority messages are always
// drained before low-priority ones (§VI, video processing pipeline).
//
// The heap is typed (no container/heap): pushing through the stdlib's
// any-valued interface boxes one queued{} per enqueue, which on the hot path
// is an allocation per request per tier. Pop order is identical either way —
// (Priority, seq) is a strict total order, so every correct binary heap pops
// the same sequence.
type reqQueue struct {
	h   []queued
	seq uint64
}

type queued struct {
	req *Request
	seq uint64
}

func queuedLess(a, b *queued) bool {
	if a.req.Priority != b.req.Priority {
		return a.req.Priority < b.req.Priority
	}
	return a.seq < b.seq
}

func (q *reqQueue) push(r *Request) {
	q.seq++
	q.h = append(q.h, queued{req: r, seq: q.seq})
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !queuedLess(&q.h[i], &q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *reqQueue) pop() *Request {
	n := len(q.h)
	if n == 0 {
		return nil
	}
	r := q.h[0].req
	n--
	q.h[0] = q.h[n]
	q.h[n] = queued{}
	q.h = q.h[:n]
	i := 0
	for {
		l, rc := 2*i+1, 2*i+2
		best := i
		if l < n && queuedLess(&q.h[l], &q.h[best]) {
			best = l
		}
		if rc < n && queuedLess(&q.h[rc], &q.h[best]) {
			best = rc
		}
		if best == i {
			break
		}
		q.h[i], q.h[best] = q.h[best], q.h[i]
		i = best
	}
	return r
}

func (q *reqQueue) len() int { return len(q.h) }

// lenPriority counts queued requests with exactly the given priority.
func (q *reqQueue) lenPriority(p int) int {
	n := 0
	for _, it := range q.h {
		if it.req.Priority == p {
			n++
		}
	}
	return n
}

// sendQueue is the FIFO of senders blocked on a service's ingress
// flow-control window. A head index replaces the per-admission element
// shift, so draining a burst of n blocked senders is O(n) total instead of
// O(n²); the slice is compacted once the dead prefix crosses half the
// backing array, keeping per-operation cost amortised O(1).
type sendQueue struct {
	items []*Request
	head  int
}

func (q *sendQueue) push(r *Request) {
	q.items = append(q.items, r)
}

func (q *sendQueue) pop() *Request {
	r := q.items[q.head]
	q.items[q.head] = nil // release the request for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head >= 64 && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return r
}

func (q *sendQueue) len() int { return len(q.items) - q.head }
