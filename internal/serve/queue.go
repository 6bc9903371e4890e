package serve

import (
	"container/heap"
	"sync"
	"time"

	"crystal/internal/queries"
)

// job is one request its caller could not answer at once, carrying what
// the caller's front half (Service.prepare) computed, so that neither the
// solo nor the batch path computes it again. A follower's job only waits on
// the flight it follows; every other job queues for a worker. seq orders
// jobs of equal priority FIFO.
type job struct {
	// shape is where the job runs, normalized against snap, the dataset
	// snapshot it resolved against and executes against; req is the
	// request as its response echoes it, shape included.
	req   Request
	shape queries.Shape
	snap  *snapshot
	// q and canon are the bound query and its canonical form, key the
	// result-cache and single-flight key, and bindWall how long resolving
	// them took.
	q        queries.Query
	canon    string
	key      string
	bindWall time.Duration
	// lead is the flight this job leads (nil for a NoCache request, which
	// neither coalesces nor batches); follow is the flight a follower waits
	// on.
	lead, follow *flight
	// enqueued is when the caller put the job on the queue; the worker's
	// pickup delta is the request's queue wait (and what the deadline
	// check at pickup compares against Request.Deadline).
	enqueued time.Time
	seq      uint64
	done     chan Response
}

// expired reports whether the job's Deadline elapsed in the queue by now.
func (j *job) expired(now time.Time) bool {
	return j.req.Deadline > 0 && now.Sub(j.enqueued) >= j.req.Deadline
}

// jobQueue is the pending-request queue: a priority heap (higher
// Request.Priority first, FIFO within a priority) bounded by depth.
// Admission policy lives in push: when the queue is full it either
// blocks the submitter (backpressure, the historical behavior) or sheds
// — refusing the newcomer, unless a strictly lower-priority job is
// pending, in which case that victim is evicted to make room. Eviction
// removes the victim under the queue lock, so exactly one party (the
// evictor, never a worker) completes its done channel.
type jobQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	jobs     jobHeap
	seq      uint64
	closed   bool
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.notEmpty.L = &q.mu
	return q
}

// push enqueues the job, stamping its FIFO sequence number.
func (q *jobQueue) push(j *job) {
	q.mu.Lock()
	q.pushLocked(j)
	q.mu.Unlock()
}

func (q *jobQueue) pushLocked(j *job) {
	j.seq = q.seq
	q.seq++
	heap.Push(&q.jobs, j)
	q.notEmpty.Signal()
}

// offer enqueues the job if the pending count is below depth. When the
// queue is full it first drops every pending job whose deadline already
// expired — a dead job was only going to be discarded at worker pickup,
// and letting it hold a slot would shed a live newcomer (or evict a live
// victim) in its stead; the dropped jobs are returned in expired for the
// caller to complete with ErrExpired. If the queue is still full it
// evicts the worst pending job — lowest priority, newest within that
// priority — provided it is strictly lower priority than the newcomer,
// and returns it for the caller to shed. Otherwise the newcomer itself
// is refused (pushed = false, victim = nil).
func (q *jobQueue) offer(j *job, depth int) (pushed bool, victim *job, expired []*job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) >= depth {
		// Full-queue scan: collect expired slots before applying the
		// shed/evict policy, then restore the heap over the live jobs.
		// (Removing by index as the scan goes would let a sift move an
		// unvisited job into a visited index, and miss it.)
		now := time.Now()
		live := q.jobs[:0]
		for _, p := range q.jobs {
			if p.expired(now) {
				expired = append(expired, p)
			} else {
				live = append(live, p)
			}
		}
		clear(q.jobs[len(live):])
		q.jobs = live
		heap.Init(&q.jobs)
	}
	if len(q.jobs) < depth {
		q.pushLocked(j)
		return true, nil, expired
	}
	// Still full: find the worst pending job. The heap orders best-first,
	// so scan the backing slice (depth is small — a few times the worker
	// count — so O(depth) is fine).
	worst := 0
	for i := 1; i < len(q.jobs); i++ {
		if worseJob(q.jobs[i], q.jobs[worst]) {
			worst = i
		}
	}
	if q.jobs[worst].req.Priority >= j.req.Priority {
		return false, nil, expired // nothing strictly lower: shed the newcomer
	}
	victim = heap.Remove(&q.jobs, worst).(*job)
	q.pushLocked(j)
	return true, victim, expired
}

// Batch-drain verdicts for drainMatching's classifier.
const (
	drainKeep = iota // leave the job queued
	drainTake        // pull the job into the batch
	drainDrop        // remove the job as deadline-expired
)

// drainMatching removes up to max pending jobs the classifier takes
// (drainTake) and every job it drops (drainDrop, deadline-expired peers
// found during the scan), returning both sets. It visits jobs best-first —
// the order workers would pop them — by popping the heap, and pushes the
// kept jobs back with their sequence numbers intact, so FIFO fairness
// within a priority is preserved. The classifier runs under the queue lock
// and must not call back into the queue.
func (q *jobQueue) drainMatching(max int, classify func(*job) int) (taken, dropped []*job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var kept []*job
	for len(taken) < max && len(q.jobs) > 0 {
		j := heap.Pop(&q.jobs).(*job)
		switch classify(j) {
		case drainTake:
			taken = append(taken, j)
		case drainDrop:
			dropped = append(dropped, j)
		default:
			kept = append(kept, j)
		}
	}
	for _, j := range kept {
		heap.Push(&q.jobs, j)
	}
	return taken, dropped
}

// pop blocks until a job is available or the queue is closed and
// drained. Remaining jobs are still handed out after close, mirroring
// the drain semantics of closing a channel.
func (q *jobQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if len(q.jobs) == 0 {
		return nil, false
	}
	return heap.Pop(&q.jobs).(*job), true
}

// close wakes every waiting worker; pending jobs drain first.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}

// len reports the pending-job count.
func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// worseJob reports whether a is a worse candidate to keep than b:
// lower priority first, then later arrival (shed the newest of the
// lowest class — the oldest has waited longest and is closest to a
// worker).
func worseJob(a, b *job) bool {
	if a.req.Priority != b.req.Priority {
		return a.req.Priority < b.req.Priority
	}
	return a.seq > b.seq
}

// jobHeap orders jobs best-first: higher priority, then FIFO (lower
// seq) within a priority.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].req.Priority != h[j].req.Priority {
		return h[i].req.Priority > h[j].req.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
