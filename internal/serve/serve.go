// Package serve is the concurrent query-service layer on top of the SSB
// engines: requests name a catalog query (or carry an ad-hoc SQL statement
// compiled through internal/sql) and an engine, a bounded worker pool
// executes them (partition-per-core, like the operators' parallelFor), and
// three caches short-circuit repeated work — SQL bindings (statement text
// to planner-ordered query), compiled plans (the built join hash tables,
// shared safely between concurrent runs) and recent results. Plan and
// result keys are the query's canonical form: the binder normalizes ad-hoc
// text (whitespace, comments, conjunct order) into one physical shape, so
// every respelling of a statement shares entries — and a named query's
// entries are shared too whenever the planner lands on the catalog's exact
// plan. Every key embeds the dataset generation, so swapping in a new
// dataset invalidates everything at once.
//
// The service also owns the compressed-execution machinery: Request.Packed
// scans the dataset's bit-packed fact encoding (built lazily, once per
// generation), and a capacity-bounded LRU of packed columns pinned in
// simulated device memory (Options.DeviceCacheBytes, defaulting to the
// V100's capacity) lets repeated coprocessor requests skip their PCIe
// transfers entirely — the residency argument for making a GPU coprocessor
// practical at scale.
//
// The simulated engine times are unaffected by serving: a cache-hit plan
// re-charges its build traffic exactly as a cold run would, so a served
// Result is row-for-row and second-for-second identical to a sequential
// queries.Plan.RunScheduled. What serving changes is the wall clock — the
// host executes the functional work once and fans requests out across cores
// — which is the Stats split of simulated vs. wall-clock latency per engine.
// The one deliberate exception is the packed coprocessor path with
// residency caching: its seconds legitimately depend on device-cache state,
// so those responses bypass the result cache instead of replaying a stale
// transfer.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/planner"
	"crystal/internal/queries"
	sqlfe "crystal/internal/sql"
	"crystal/internal/ssb"
	"crystal/internal/trace"
)

// ErrClosed is returned by submissions to a closed service.
var ErrClosed = errors.New("serve: service is closed")

// ErrOverloaded reports load shedding: under Options.Shed, a submission
// that finds the pending queue at QueueDepth with no strictly
// lower-priority request to evict fails fast with this error, and an
// evicted request receives it as its Response.Err. ssbserve maps it to
// 429 with a Retry-After header.
var ErrOverloaded = errors.New("serve: overloaded: pending queue is full")

// ErrExpired is delivered as the Response.Err of a request whose
// Deadline elapsed while it was still queued: the worker drops the job
// at pickup instead of executing it dead.
var ErrExpired = errors.New("serve: deadline expired before execution")

// ErrIncomplete is the Response.Err of an execution that panicked: its
// job, followers and batch-mates complete with it, and the worker lives on.
var ErrIncomplete = errors.New("serve: execution did not complete")

// Request names one unit of work: a query executed on one engine. The
// query is either named (QueryID, one of the 13 SSB definitions) or ad hoc
// (SQL, a statement in the internal/sql dialect); exactly one must be set.
type Request struct {
	QueryID string
	// SQL is an ad-hoc statement compiled through the SQL frontend and
	// join-ordered by the cost-based planner.
	SQL    string
	Engine queries.Engine
	// Partitions splits the fact scan into that many zone-mapped morsels:
	// morsels a filter cannot match are skipped, and the surviving ones fan
	// out across the service's bounded morsel pool. 0 (the default) runs the
	// monolithic scan. Rows are identical either way; simulated seconds are
	// identical unless zone maps prune (then they are cheaper).
	Partitions int
	// Packed scans the bit-packed fact encoding (built lazily, once per
	// dataset generation) instead of the plain columns. Rows are identical;
	// simulated seconds reflect the Section 5.5 compression asymmetry, and
	// coprocessor requests ship compressed bytes over PCIe — skipping the
	// transfer entirely for columns the device residency cache holds.
	Packed bool
	// GPUs routes the request to the modeled multi-GPU fleet: the fact
	// table's zone-mapped morsels are range-sharded across that many
	// devices, each runs the tile-based kernel over its own shard, and the
	// partial aggregates merge over the Interconnect. Rows are identical to
	// single-device execution at any fleet size. 0 (the default) runs on
	// one device; fleet requests must name the Standalone GPU engine. More
	// than fleet.MaxGPUs (64) is refused before anything queues.
	GPUs int
	// Interconnect names the fleet link ("pcie" or "nvlink"; empty means
	// pcie). Meaningful when GPUs > 0 or Placement is set.
	Interconnect string
	// Placement routes the request through the unified scheduler
	// (queries.Plan.RunScheduled) over host-resident data: "cpu" runs the
	// standalone CPU engine, "gpu" the GPU fleet with every referenced
	// column shipped over the Interconnect per query, "hybrid" co-executes
	// the CPU and GPU arms over a planner-split morsel set, and "auto"
	// lets planner.ChoosePlacement pick whichever the bytes-moved model
	// prices cheapest. Empty (the default) keeps the classic dispatch
	// (Engine + GPUs). Placement requests leave Engine empty (or name the
	// Standalone GPU engine — the kernels the GPU arms run); GPUs sizes
	// the GPU arm (default 1). Rows are identical across placements;
	// simulated seconds follow each placement's bandwidth model.
	// "cpu" is the Standalone CPU engine (queries.Shape): no GPU arm, no
	// link; its answer reports Placement "cpu", CPUFrac 1, one executor.
	Placement string
	// NoCache bypasses the result cache for this request (the plan cache
	// still applies); used to force fresh execution for benchmarking. A
	// NoCache request also never coalesces onto another request's
	// execution — it always runs its own.
	NoCache bool
	// Deadline bounds the request's queue wait: a job still queued when
	// its deadline elapses is dropped at worker pickup with ErrExpired
	// instead of executed dead. 0 means no deadline. Do derives one from
	// its context's deadline when the field is unset. The bound covers
	// queue wait only — a request picked up in time runs to completion.
	// Hits and followers never queue, so it never applies to them; a
	// follower's wait is bounded by its caller's context instead.
	Deadline time.Duration
	// Priority orders the pending queue: higher priorities are picked up
	// first, equal priorities FIFO. Under Options.Shed, a full queue
	// admits a newcomer by shedding a strictly lower-priority pending
	// request when one exists. 0 is the default class.
	Priority int
}

// Answer is what one execution computed: the rows and the telemetry of the
// run that produced them. It is built once, when the execution finishes,
// and from then on shared by pointer — with the executing request, the
// result cache, every coalesced follower and every later cache hit. Served
// answers are therefore read-only: nothing in an Answer, its Result or its
// telemetry slices may be mutated by a caller.
type Answer struct {
	Result *queries.Result
	// SimSeconds is the engine's simulated device time (Result.Seconds).
	SimSeconds float64
	// Morsels and Pruned report the partitioned-execution outcome: how many
	// morsels the fact scan was split into (1 for monolithic runs) and how
	// many of them zone maps skipped.
	Morsels int
	Pruned  int
	// TransferBytes is the PCIe traffic a coprocessor request actually
	// shipped, and ResidentCols the referenced fact columns the device
	// residency cache served without any transfer.
	TransferBytes int64
	ResidentCols  int
	// GPUs and Interconnect echo the normalized fleet shape a fleet or
	// placement request ran on (0/"" for single-device requests); Devices
	// carries a fleet request's per-device execution telemetry and
	// MergeBytes the partial-aggregate traffic that crossed the
	// interconnect.
	GPUs         int
	Interconnect string
	Devices      []queries.FleetDevice
	MergeBytes   int64
	// Placement is the resolved placement a placement-routed request ran
	// ("cpu", "gpu" or "hybrid" — an "auto" request reports what the
	// planner chose; empty for classic dispatch). CPUFrac is the live-row
	// fraction the schedule routed to the CPU arm, and Executors carries
	// the per-executor telemetry, whose counters sum to the answer totals.
	Placement string
	CPUFrac   float64
	Executors []queries.ExecutorResult
}

// Response is the outcome of one request: a per-request envelope around the
// shared, read-only Answer. The embedded Answer's fields read as the
// response's own (resp.Result, resp.SimSeconds, ...). A failed request —
// Err set, including shed and expired ones — carries a nil Answer, so
// callers check Err before reading any answer field.
type Response struct {
	*Answer
	Request Request
	// Version is the dataset version the request executed against.
	Version string
	// Query is the resolved (and, for SQL requests, planner-ordered) query
	// the service executed; it names the answer (equivalent queries share
	// one) and decodes its group keys.
	Query queries.Query
	// Wall is the host wall-clock time the service spent producing the
	// result (near zero on a result-cache hit).
	Wall time.Duration
	// PlanCached and ResultCached report whether the compiled plan and the
	// answer were served from cache.
	PlanCached   bool
	ResultCached bool
	// Coalesced reports single-flight sharing: this request missed the
	// result cache but found an identical request (same result-cache key,
	// same dataset generation) already executing, waited for it on its own
	// caller — never in the queue — and shares its answer, charged only
	// its wait (in Wall), never a second execution.
	Coalesced bool
	// Batched reports shared-scan batching (Options.MaxBatch): the worker
	// that picked this request up drained BatchSize-1 scan-compatible
	// peers from the queue and executed them all inside one shared morsel
	// scan. Rows and SimSeconds are identical to a solo run of the same
	// request; BatchShareSeconds is this member's apportioned share of the
	// batch's simulated time (shares sum exactly to the batch total, which
	// at size >= 2 is less than the sum of the members' solo seconds).
	Batched           bool
	BatchSize         int
	BatchShareSeconds float64
	// QueueWait is the time the request sat in the queue before a worker
	// picked it up (not included in Wall). It is 0 for a result-cache hit
	// and for a coalesced follower: neither ever queues.
	QueueWait time.Duration
	// TraceID and Trace are set when the service traces (Options.Trace):
	// the flight-recorder handle (GET /trace?id=...) and the request's
	// span tree. Traces are built fresh per request and never served from
	// the result cache.
	TraceID string
	Trace   *trace.Trace
	Err     error
}

// Options configures a Service.
type Options struct {
	// Workers is the size of the execution pool; 0 means GOMAXPROCS.
	Workers int
	// PlanCacheSize caps the compiled-plan cache (default 64 entries).
	PlanCacheSize int
	// ResultCacheSize caps the result cache (default 256 entries).
	ResultCacheSize int
	// BindCacheSize caps the SQL bind cache, which maps raw statement text
	// to its bound, planner-ordered query (default 128 entries).
	BindCacheSize int
	// QueueDepth bounds the pending-request queue (default 4x Workers).
	QueueDepth int
	// Shed switches the full-queue policy from blocking backpressure (the
	// default: Submit waits for space, honoring its context) to load
	// shedding: a submission past QueueDepth fails fast with
	// ErrOverloaded — unless a strictly lower-priority request is
	// pending, in which case that victim is evicted (its Response.Err is
	// ErrOverloaded) and the newcomer admitted. Only work that has to
	// execute is ever admitted or shed: a result-cache hit or a follower of
	// an in-flight identical request is answered on its caller, so a full
	// queue never refuses it. A follower whose leader is shed, evicted or
	// expires gets its own admission outcome, never the leader's.
	Shed bool
	// ExecDelay adds a fixed wall-clock delay to every real engine
	// execution, on the worker (cache hits and coalesced followers never
	// reach a worker, so they are unaffected). The
	// simulated engines finish in microseconds of wall time, so overload
	// tests and load experiments use this to emulate a slow backend
	// deterministically: N slow executions against a bounded queue must
	// shed on any machine. Zero (the default) adds nothing. A shared-scan
	// batch pays the delay once for the whole batch — the wall-clock form
	// of the scan it shares.
	ExecDelay time.Duration
	// MaxBatch enables shared-scan batching of compatible queries: at
	// pickup a worker drains up to MaxBatch-1 pending requests that are
	// scan-compatible with the picked job (same snapshot and queries.Shape,
	// overlapping fact-column footprint —
	// queries.Compatible) and executes the whole batch through one shared
	// morsel scan (queries.RunBatchScheduled), charging shared column traffic
	// once. Each member's rows and simulated seconds are identical to its
	// solo run. 0 or 1 disables batching (the default). Only misses queue,
	// so a batch never holds cached work, and each member leads its own
	// flight: an identical request arriving meanwhile follows it instead of
	// joining the batch, and every member's answer is stored under its solo
	// result key. Batches never consult residency caches; NoCache requests
	// and residency-dependent shapes are never batched.
	MaxBatch int
	// MorselHelpers caps the extra goroutines all in-flight requests
	// together may spawn for intra-query parallelism (morsel scans, GPU
	// blocks). The executing worker always makes progress without a slot,
	// so a partitioned query can never starve other requests; helpers only
	// soak up cores the pool isn't using. Default: GOMAXPROCS.
	MorselHelpers int
	// DeviceCacheBytes caps the device-memory residency cache of packed
	// columns the coprocessor engine consults. 0 sizes it to the GPU's
	// memory (device.V100().MemoryBytes); negative disables residency
	// caching (every packed coprocessor request pays its full transfer).
	DeviceCacheBytes int64
	// FleetDeviceMemoryBytes overrides the fleet devices' shard region
	// (spill experiments; 0 keeps the V100's 32 GB): fleet.Assign bounds
	// each device's resident shard bytes by it, and the overflow spills to
	// the host. When set together with an enabled device cache, packed
	// fleet requests additionally consult one residency cache per fleet
	// device for their spilled columns; that cache models a separate
	// pinned-column region sized by DeviceCacheBytes, not part of the
	// shard region this knob constrains. Residency-dependent responses
	// bypass the result cache, like the coprocessor's residency path.
	FleetDeviceMemoryBytes int64
	// Trace enables span-tree tracing: every executed request produces a
	// trace.Trace (admit → bind → plan → run with per-assignment
	// kernel/transfer/merge spans), attached to the Response and retained
	// by the bounded flight recorder. Off by default; when off, the hot
	// path allocates nothing for tracing (pinned by an allocs/op
	// benchmark).
	Trace bool
	// TraceRecent and TraceSlowest bound the flight recorder: the ring of
	// most recent traces (default 64) and the top-K slowest by wall clock
	// (default 16).
	TraceRecent  int
	TraceSlowest int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.PlanCacheSize <= 0 {
		out.PlanCacheSize = 64
	}
	if out.ResultCacheSize <= 0 {
		out.ResultCacheSize = 256
	}
	if out.BindCacheSize <= 0 {
		out.BindCacheSize = 128
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 4 * out.Workers
	}
	if out.MorselHelpers <= 0 {
		out.MorselHelpers = runtime.GOMAXPROCS(0)
	}
	if out.DeviceCacheBytes == 0 {
		out.DeviceCacheBytes = device.V100().MemoryBytes
	}
	if out.TraceRecent <= 0 {
		out.TraceRecent = 64
	}
	if out.TraceSlowest <= 0 {
		out.TraceSlowest = 16
	}
	return out
}

// gate is the shared morsel-parallelism limiter (queries.Limiter): a
// semaphore sized by Options.MorselHelpers that all requests draw helper
// slots from without blocking.
type gate chan struct{}

// TryAcquire grants a helper slot if one is free, without blocking.
func (g gate) TryAcquire() bool {
	select {
	case g <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a helper slot taken by TryAcquire.
func (g gate) Release() { <-g }

// planEntry is a once-guarded plan-cache slot: concurrent misses for the
// same (version, query) compile exactly once and the rest wait on the Once.
type planEntry struct {
	once sync.Once
	plan *queries.Plan
}

// flight is one in-progress execution that identical concurrent misses
// wait on. Its leader closes done after publishing either its answer (which
// followers share, like a cache hit) or err. Registration and completion
// both happen under cacheMu together with the result-cache lookup, so for
// any (key, generation) exactly one of three states is ever observable:
// cached, in flight, or absent.
type flight struct {
	done   chan struct{}
	answer *Answer
	err    error
	// abandoned marks a leader that never executed — shed, evicted, expired
	// or cancelled before a worker ran it. err is its own admission outcome,
	// not its followers': they run their own lookup-or-lead instead.
	abandoned bool
}

// snapshot is one dataset generation: the dataset, its version label, a
// monotonic generation number and the packed fact encoding, built at most
// once, on first use. It is immutable once published — SetDataset replaces
// it whole — so a request that resolved against a snapshot executes against
// that snapshot, packed encoding included, however many swaps land in
// between. Cache keys embed gen, not the version label, so reusing a label
// (rollback, redeploy) can never resurrect entries compiled against
// different data.
type snapshot struct {
	ds       *ssb.Dataset
	version  string
	gen      uint64
	packOnce sync.Once
	packed   *ssb.PackedFact
}

// packedFact returns the generation's bit-packed fact encoding. The first
// packed request of a generation pays the one-pass packing cost; concurrent
// firsts wait on the Once.
func (sn *snapshot) packedFact() *ssb.PackedFact {
	sn.packOnce.Do(func() { sn.packed = sn.ds.Pack() })
	return sn.packed
}

// Service executes SSB query requests concurrently over one dataset.
type Service struct {
	opts Options

	mu     sync.RWMutex // guards closed
	closed bool

	// snap is the current dataset generation. SetDataset replaces it under
	// cacheMu; readers load it without a lock.
	snap atomic.Pointer[snapshot]

	// cacheMu guards the LRUs (lookups reorder the recency list, so even
	// reads are writes). Plan and result keys use the query's canonical
	// form (queries.Query.Canonical), not its ID, so two SQL spellings of
	// one statement — whitespace, comments, filter order — share entries,
	// as does a named query whose catalog plan coincides with the bound
	// form. Distinct canonical forms never collide, which keeps served
	// simulated seconds deterministic.
	cacheMu sync.Mutex
	plans   *lru // "gen\x00canonical" -> *planEntry
	results *lru // "gen\x00canonical\x00engine" -> *Answer
	binds   *lru // "gen\x00sql text" -> *boundSQL
	// flights are the in-progress executions coalesceable misses join,
	// keyed like the result cache. Guarded by cacheMu — the same lock as
	// the results LRU — so "check cache, join flight or become leader"
	// is one atomic step and a (key, generation) can never execute twice.
	flights map[string]*flight

	// execHook, when set (tests only, before any traffic), observes every
	// real engine execution — solo or batch member — with its result-cache
	// key; coalesced and cache-hit responses never fire it. flightHook
	// observes a follower just before it waits on an in-progress flight.
	execHook   func(resultKey string)
	flightHook func()

	// stats is the running tally; Stats() copies it under statsMu.
	statsMu sync.Mutex
	stats   Stats

	// devCache is the simulated GPU's device-memory residency cache of
	// packed columns (nil when disabled); the coprocessor engine consults
	// it through queries.Residency.
	devCache *deviceCache

	// fleetMu guards fleetCaches, the per-fleet-device residency caches
	// packed fleet requests consult for spilled columns (grown lazily to
	// the largest fleet size seen; only populated when
	// Options.FleetDeviceMemoryBytes constrains device memory).
	fleetMu     sync.Mutex
	fleetCaches []*deviceCache

	// recorder is the bounded flight recorder of recent and slowest
	// traces; nil unless Options.Trace is set, and the nil check is what
	// keeps the untraced hot path allocation-free.
	recorder *trace.Recorder

	// morsels bounds intra-query helper parallelism across every in-flight
	// request (Options.MorselHelpers); tests may swap in a counting one.
	morsels queries.Limiter

	// queue holds the jobs that have to execute: flight leaders, NoCache
	// requests and residency-dependent requests — never a hit or a
	// follower, which their callers answer. In the default blocking mode,
	// slots is a QueueDepth-sized semaphore: the caller acquires a slot
	// (waiting under its context) before pushing and the popping worker
	// releases it. Under Options.Shed, slots is nil and the depth check
	// lives in queue.offer.
	queue *jobQueue
	slots chan struct{}
	wg    sync.WaitGroup
	// pending counts callers that have passed the closed check but not yet
	// enqueued; Close waits for them before closing the queue.
	pending sync.WaitGroup
}

// New starts a service over ds, identified by version, with opts.Workers
// executor goroutines. Close releases them.
func New(ds *ssb.Dataset, version string, opts Options) *Service {
	s := &Service{opts: opts.withDefaults()}
	s.snap.Store(&snapshot{ds: ds, version: version})
	s.plans = newLRU(s.opts.PlanCacheSize)
	s.results = newLRU(s.opts.ResultCacheSize)
	s.binds = newLRU(s.opts.BindCacheSize)
	if s.opts.DeviceCacheBytes > 0 {
		s.devCache = newDeviceCache(s.opts.DeviceCacheBytes, 0)
	}
	if s.opts.Trace {
		s.recorder = trace.NewRecorder(s.opts.TraceRecent, s.opts.TraceSlowest)
	}
	s.morsels = make(gate, s.opts.MorselHelpers)
	s.flights = map[string]*flight{}
	s.queue = newJobQueue()
	if !s.opts.Shed {
		s.slots = make(chan struct{}, s.opts.QueueDepth)
	}
	s.wg.Add(s.opts.Workers)
	for w := 0; w < s.opts.Workers; w++ {
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.queue.pop()
				if !ok {
					return
				}
				if s.slots != nil {
					<-s.slots
				}
				s.run(j)
			}
		}()
	}
	return s
}

// run executes one job a worker picked up, alone or leading a shared-scan
// batch. A panic in either path ends here, not the process: the path's
// deferred completion has answered every job it held with ErrIncomplete.
func (s *Service) run(j *job) {
	defer func() { _ = recover() }()
	now := time.Now()
	if j.expired(now) {
		// Expired in the queue: executing it would waste a worker on an
		// answer nobody is waiting for.
		s.drop(j, ErrExpired)
		return
	}
	wait := now.Sub(j.enqueued)
	if peers := s.formBatch(j); len(peers) > 0 {
		s.executeBatch(j, wait, peers)
		return
	}
	s.execute(j, wait)
}

// Workers returns the execution pool size.
func (s *Service) Workers() int { return s.opts.Workers }

// TraceRecorder returns the service's flight recorder of recent and
// slowest traces, or nil when tracing is disabled (Options.Trace).
func (s *Service) TraceRecorder() *trace.Recorder { return s.recorder }

// Version returns the current dataset version.
func (s *Service) Version() string { return s.snap.Load().version }

// SetDataset atomically swaps in a new dataset under a new version and
// drops every cached plan and result: entries are keyed by generation, so
// nothing compiled against the old data can ever be served again.
//
// The snapshot swap and the purge happen under one cacheMu critical
// section — the same lock the lookup-or-lead section holds while it checks
// that the snapshot it resolved against is still current. That makes the
// swap atomic from the lookup's point of view: a request either runs
// entirely before it (and finds the old generation's entries intact) or
// entirely after (and retries against the new snapshot). Swapping and
// purging in two separate sections would let a full lead→store→complete
// cycle slip between them, after which the swap's late purge deleted the
// stored entry while its generation was still current — and the next
// identical request re-executed it.
func (s *Service) SetDataset(version string, ds *ssb.Dataset) {
	s.cacheMu.Lock()
	gen := s.snap.Load().gen + 1
	s.snap.Store(&snapshot{ds: ds, version: version, gen: gen})
	s.plans.purge()
	s.results.purge()
	s.binds.purge()
	s.cacheMu.Unlock()
	if s.devCache != nil {
		s.devCache.purge(gen)
	}
	s.fleetMu.Lock()
	for _, c := range s.fleetCaches {
		c.purge(gen)
	}
	s.fleetMu.Unlock()
}

// fleetResidencies returns one generation-bound residency cache per fleet
// device, growing the cache list to the requested fleet size. Each cache
// is bounded by Options.DeviceCacheBytes — the same knob the coprocessor's
// residency cache uses, here modeling the headroom a device dedicates to
// pinning spilled packed columns. Entries are scoped to the fleet shape
// (gpus × effective partitions): different shard maps spill different
// byte ranges of a column, which must never satisfy each other's lookups.
func (s *Service) fleetResidencies(gen uint64, gpus, partitions int) []queries.Residency {
	scope := strconv.Itoa(gpus) + "x" + strconv.Itoa(partitions)
	s.fleetMu.Lock()
	for len(s.fleetCaches) < gpus {
		s.fleetCaches = append(s.fleetCaches, newDeviceCache(s.opts.DeviceCacheBytes, s.snap.Load().gen))
	}
	out := make([]queries.Residency, gpus)
	for i := range out {
		out[i] = residency{cache: s.fleetCaches[i], gen: gen, scope: scope}
	}
	s.fleetMu.Unlock()
	return out
}

// Close drains the worker pool. In-flight requests finish; subsequent
// submissions fail with ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.pending.Wait()
	s.queue.close()
	s.wg.Wait()
}

// Submit resolves a request on the calling goroutine and returns a channel
// that receives its single response. A result-cache hit (or a bind error)
// comes back on a channel already filled. A follower of an identical
// request already executing gets a channel filled when that execution
// completes. Only work that has to execute queues for a worker: in the
// default blocking mode a full queue applies backpressure — Submit waits
// for space, and ctx bounds the wait; the context is checked before and
// during the enqueue, so a cancelled context never blocks on a full queue.
// Under Options.Shed a full queue instead fails fast with ErrOverloaded
// (see Options.Shed for the priority-eviction carve-out).
func (s *Service) Submit(ctx context.Context, req Request) (<-chan Response, error) {
	start := time.Now()
	resp, j, err := s.admit(ctx, req, start)
	switch {
	case err != nil:
		return nil, err
	case j != nil && j.follow == nil:
		return j.done, nil // queued
	}
	done := make(chan Response, 1)
	if j == nil {
		done <- resp
		return done, nil
	}
	// The goroutine ends when the flight does: every leader completes its
	// flight, executed (deferred, so a panic too) or abandoned.
	go func() {
		resp, _ := s.await(ctx, context.Background(), req, start, resp, j)
		done <- resp
	}()
	return done, nil
}

// Do executes one request synchronously. A hit or a follower is answered
// on the calling goroutine and never queues; a follower's wait is bounded
// by ctx. Work that has to execute queues for a worker, and ctx bounds both
// the wait for queue space and the wait for the worker. A request cancelled
// after enqueueing still completes in the background; its response is
// discarded. When the request sets no Deadline of its own, Do derives one
// from ctx's deadline, so a deadline-bounded call also sheds dead at worker
// pickup instead of executing unobserved.
func (s *Service) Do(ctx context.Context, req Request) (Response, error) {
	if req.Deadline == 0 {
		if dl, ok := ctx.Deadline(); ok {
			if budget := time.Until(dl); budget > 0 {
				req.Deadline = budget
			}
		}
	}
	start := time.Now()
	resp, j, err := s.admit(ctx, req, start)
	if err != nil {
		return Response{}, err
	}
	return s.await(ctx, ctx, req, start, resp, j)
}

// RunAll dispatches the batch across the worker pool and returns the
// responses in request order. Per-request failures are reported in each
// Response.Err; the returned error covers submission only.
func (s *Service) RunAll(ctx context.Context, reqs []Request) ([]Response, error) {
	chans := make([]<-chan Response, len(reqs))
	for i, req := range reqs {
		done, err := s.Submit(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("serve: submitting request %d: %w", i, err)
		}
		chans[i] = done
	}
	out := make([]Response, len(reqs))
	for i, done := range chans {
		select {
		case out[i] = <-done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// admit runs req's front half on the caller (prepare) and queues its job
// when the job has to execute. It returns resp settled and a nil job for a
// hit or a bind error, a follower's job (not queued), or a queued job whose
// done channel receives the reply. err is the submission's own failure:
// ErrClosed, a cancelled context, or ErrOverloaded.
func (s *Service) admit(ctx context.Context, req Request, start time.Time) (Response, *job, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Response{}, nil, ErrClosed
	}
	// Registering under the read lock orders this submission before any
	// Close: the worker pool stays up until the enqueue below lands.
	s.pending.Add(1)
	s.mu.RUnlock()
	defer s.pending.Done()
	if err := ctx.Err(); err != nil {
		return Response{}, nil, err
	}
	resp, j := s.prepare(req, start)
	if j == nil || j.follow != nil {
		return resp, j, nil
	}
	if s.slots == nil {
		// Shed mode: admission is decided now, under the queue lock.
		j.enqueued = time.Now()
		pushed, victim, expired := s.queue.offer(j, s.opts.QueueDepth)
		for _, e := range expired {
			// Deadline-dead jobs dropped by the full-queue scan complete here
			// with the same response shape worker pickup would have produced;
			// the slots they held now admit live work instead of forcing a
			// shed or an eviction.
			s.drop(e, ErrExpired)
		}
		if victim != nil {
			s.drop(victim, ErrOverloaded)
		}
		if !pushed {
			s.recordShed()
			s.unlead(j, ErrOverloaded)
			return Response{}, nil, ErrOverloaded
		}
		return resp, j, nil
	}
	select {
	case s.slots <- struct{}{}:
		j.enqueued = time.Now()
		s.queue.push(j)
		return resp, j, nil
	case <-ctx.Done():
		s.unlead(j, ctx.Err())
		return Response{}, nil, ctx.Err()
	}
}

// await finishes a request its caller could not answer at once. A queued
// job's reply arrives on its done channel. A follower waits for its flight
// and shares the leader's answer — or its error, when the leader executed
// and failed; when the leader never executed, the follower runs its own
// lookup-or-lead (admit) and goes round again. wait bounds every wait: Do
// passes its own context, Submit's goroutine waits unbounded. A wait or a
// re-admission that fails is answered with its error.
func (s *Service) await(ctx, wait context.Context, req Request, start time.Time, resp Response, j *job) (Response, error) {
	var err error
	for j != nil {
		if j.follow == nil {
			select {
			case resp = <-j.done:
				return resp, resp.Err
			case <-wait.Done():
				return Response{Request: req, Err: wait.Err()}, wait.Err()
			}
		}
		f := j.follow
		if s.flightHook != nil {
			s.flightHook()
		}
		select {
		case <-f.done:
		case <-wait.Done():
			return Response{Request: req, Err: wait.Err()}, wait.Err()
		}
		switch {
		case f.abandoned:
			if resp, j, err = s.admit(ctx, req, start); err != nil {
				return Response{Request: req, Err: err}, err
			}
		case f.answer == nil:
			return s.failed(&resp, f.err), f.err
		default:
			s.replay(&resp, f.answer, start, j.bindWall, true)
			return resp, nil
		}
	}
	return resp, resp.Err
}

// boundSQL is a bind-cache entry: the statement compiled, validated and
// join-ordered once, with its canonical cache key.
type boundSQL struct {
	q     queries.Query
	canon string
}

// catalog memoizes the 13 named queries with their canonical keys, so the
// result-cache fast path never re-scans the catalog or re-renders the
// canonical string. Entries are read-only after the Once.
var (
	catalogOnce sync.Once
	catalog     map[string]*boundSQL
)

func namedQuery(id string) (*boundSQL, error) {
	catalogOnce.Do(func() {
		catalog = make(map[string]*boundSQL)
		for _, q := range queries.All() {
			catalog[q.ID] = &boundSQL{q: q, canon: q.Canonical()}
		}
	})
	b, ok := catalog[id]
	if !ok {
		_, err := queries.ByID(id) // canonical "unknown query" error
		return nil, err
	}
	return b, nil
}

// resolve turns a request into the query to execute plus its canonical
// cache key. Named queries come from the catalog; SQL statements go
// through the frontend and the cost-based planner (payload-order
// preserving, priced on the GPU device the paper centers on), memoized in
// the bind cache so repeated texts skip both.
func (s *Service) resolve(sn *snapshot, req Request) (queries.Query, string, error) {
	switch {
	case req.QueryID != "" && req.SQL != "":
		return queries.Query{}, "", fmt.Errorf("serve: request sets both QueryID %q and SQL; pick one", req.QueryID)
	case req.QueryID != "":
		b, err := namedQuery(req.QueryID)
		if err != nil {
			return queries.Query{}, "", err
		}
		return b.q, b.canon, nil
	case req.SQL != "":
		bindKey := cacheKey(strconv.FormatUint(sn.gen, 10), "sql", req.SQL)
		s.cacheMu.Lock()
		v, ok := s.binds.get(bindKey)
		s.cacheMu.Unlock()
		if ok {
			b := v.(*boundSQL)
			return b.q, b.canon, nil
		}
		q, err := sqlfe.Compile(req.SQL)
		if err != nil {
			return queries.Query{}, "", err
		}
		q = planner.OptimizeGrouped(device.V100(), sn.ds, q)
		b := &boundSQL{q: q, canon: q.Canonical()}
		s.cacheMu.Lock()
		if s.snap.Load() == sn {
			s.binds.put(bindKey, b)
		}
		s.cacheMu.Unlock()
		return b.q, b.canon, nil
	default:
		return queries.Query{}, "", errors.New("serve: request names no query (set QueryID or SQL)")
	}
}

// shape is the request's execution shape as submitted, before
// queries.Shape.Normalize.
func (r Request) shape() queries.Shape {
	return queries.Shape{Engine: r.Engine, Placement: r.Placement, GPUs: r.GPUs,
		Link: r.Interconnect, Partitions: r.Partitions, Packed: r.Packed}
}

// echo is r as its response reports it: the shape fields replaced by the
// normalized shape it was keyed and run on.
func (r Request) echo(sh queries.Shape) Request {
	r.Engine, r.Placement, r.GPUs = sh.Engine, sh.Placement, sh.GPUs
	r.Interconnect, r.Partitions, r.Packed = sh.Link, sh.Partitions, sh.Packed
	return r
}

// coprocResidency and fleetResidency report whether a normalized shape's
// simulated seconds depend on device-cache state (cold vs warm transfer).
// Such responses are not replayable: coprocessor residency requests bypass
// the result cache and single-flight entirely, and packed fleet requests
// with per-device caches enabled may still look up — only responses that
// touched no residency state (nothing spilled, nothing resident) are ever
// stored, and those are deterministic. Neither shape is ever batched.
// Placement runs never consult residency caches.
func (s *Service) coprocResidency(sh queries.Shape) bool {
	return sh.Packed && sh.Engine == queries.EngineCoproc && s.devCache != nil
}

func (s *Service) fleetResidency(sh queries.Shape) bool {
	return sh.Placement == "" && sh.GPUs > 0 && sh.Packed && s.devCache != nil && s.opts.FleetDeviceMemoryBytes > 0
}

// plan returns the compiled plan for q through the plan cache: a
// once-guarded entry is installed on a miss so concurrent misses for the
// same (generation, canonical query) compile a single plan. The install is
// skipped if the dataset moved on since the snapshot — the entry would be
// keyed by a dead generation and only waste an LRU slot.
func (s *Service) plan(sn *snapshot, q queries.Query, canon string) (plan *queries.Plan, cached bool, wall time.Duration) {
	key := cacheKey(strconv.FormatUint(sn.gen, 10), canon)
	s.cacheMu.Lock()
	var entry *planEntry
	if v, ok := s.plans.get(key); ok {
		entry, cached = v.(*planEntry), true
	} else {
		entry = &planEntry{}
		if s.snap.Load() == sn {
			s.plans.put(key, entry)
		}
	}
	s.cacheMu.Unlock()
	start := time.Now()
	entry.once.Do(func() { entry.plan = queries.Compile(sn.ds, q) })
	return entry.plan, cached, time.Since(start)
}

// route is how a job runs: its shape with "auto" resolved, and the run
// options the service supplies — the packed fact, the residency hooks, the
// morsel pool and the fleet-memory override. A solo execution schedules its
// plan on it, a shared-scan batch every member's (queries.Plan.Schedule).
type route struct {
	shape queries.Shape
	opts  queries.RunOptions
}

// route assembles sh's run options and resolves its placement. auto is
// consulted for "auto" shapes only: the planner's choice among the
// host-resident placements, deterministic per generation (same dataset,
// same morsel map, same choice — which is what lets "auto" responses
// cache).
func (s *Service) route(sn *snapshot, sh queries.Shape,
	auto func(fleet.Spec, *ssb.PackedFact) (string, error)) (*route, error) {
	r := &route{shape: sh}
	r.opts.Partition.Partitions = sh.Partitions
	r.opts.Partition.Limiter = s.morsels
	r.opts.Fleet.MemoryBytes = s.opts.FleetDeviceMemoryBytes
	r.opts.Trace = s.recorder != nil
	if sh.Packed {
		r.opts.Partition.Packed = sn.packedFact()
		switch {
		case s.fleetResidency(sh):
			r.opts.Fleet.Residency = s.fleetResidencies(sn.gen, sh.GPUs, sh.Partitions)
		case s.coprocResidency(sh):
			r.opts.Partition.Residency = residency{cache: s.devCache, gen: sn.gen}
		}
	}
	if sh.Placement == PlacementAuto {
		choice, err := auto(sh.Fleet(), r.opts.Partition.Packed)
		if err != nil {
			return nil, err
		}
		r.shape = sh.Place(choice)
	}
	return r, nil
}

// report builds a scheduled run's Answer in the wire shape of the route:
// placement requests report their executors and the cpuFrac Plan.Schedule
// returned, fleet requests the fleet-shaped per-device view. This is the
// one place an Answer is made; the executing request, the result cache and
// the flight all share it.
func (r *route) report(sr *queries.ScheduledResult, cpuFrac float64) *Answer {
	a := &Answer{
		Result:        sr.Result,
		SimSeconds:    sr.Result.Seconds,
		Morsels:       sr.Result.Morsels,
		Pruned:        sr.Result.Pruned,
		TransferBytes: sr.Result.TransferBytes,
		ResidentCols:  sr.Result.ResidentCols,
	}
	sh := r.shape
	switch {
	case sh.Placement != "":
		a.Placement = sh.Placement
		a.CPUFrac = cpuFrac
		a.Executors = sr.Executors
	case sh.GPUs > 0:
		a.Devices = queries.FleetDevices(sr.Executors)
	default:
		return a
	}
	a.GPUs = sh.GPUs
	a.Interconnect = sh.Link
	a.MergeBytes = sr.MergeBytes
	return a
}

// prepare is a request's front half, run on its caller: snapshot →
// normalize its shape → resolve → result key → lookup-or-follow-or-lead. A
// request the caller can answer — a shape or bind error, or a result-cache
// hit — comes back settled in resp with a nil job. Any other request comes
// back as its job, carrying everything computed here so that nothing
// downstream computes it again: a follower (follow set), which waits on an
// identical request's flight and never queues, or a job that has to execute
// — the leader of a new flight (lead set), or a request that may not
// coalesce.
func (s *Service) prepare(req Request, start time.Time) (resp Response, j *job) {
	// Snapshot → resolve → lookup-or-lead runs in a retry loop. A request
	// that loaded a snapshot and stalled could reach the lookup after a
	// swap purged its key's stored answer — and would then execute that
	// (key, generation) a second time. The lookup critical section checks
	// that the snapshot is still current and starts over when it is not,
	// which makes lookup-or-lead atomic with respect to SetDataset's
	// swap-and-purge and keeps exactly-one-execution per (key, generation)
	// strict.
	for {
		sn := s.snap.Load()
		sh, err := req.shape().Normalize(sn.ds.Lineorder.Rows())
		if err != nil {
			resp = Response{Request: req}
			return s.failed(&resp, err), nil
		}
		coalesceable := !req.NoCache && !s.coprocResidency(sh)
		resp = Response{Request: req.echo(sh), Version: sn.version}
		// bindWall times query resolution for the trace's bind span; stamped
		// unconditionally (two clock reads), consumed only when tracing.
		bindStart := time.Now()
		q, canon, err := s.resolve(sn, req)
		bindWall := time.Since(bindStart)
		if err != nil {
			return s.failed(&resp, err), nil
		}
		resp.Query = q
		// The result-cache and single-flight key: generation, canonical
		// query and shape, built in one allocation when it fits the buffer
		// (every catalog query and generated statement does).
		var kb [384]byte
		b := append(strconv.AppendUint(kb[:0], sn.gen, 10), 0)
		key := string(sh.AppendKey(append(append(b, canon...), 0)))
		var f *flight
		following := false
		if coalesceable {
			// Cache lookup and single-flight formation are one critical
			// section under cacheMu: a coalesceable request either hits the
			// cache, joins the in-progress flight for its key, or registers
			// itself as the leader — so for any (key, generation) at most one
			// execution ever runs, no matter how the misses interleave with
			// the leader's fill.
			s.cacheMu.Lock()
			if s.snap.Load() != sn {
				s.cacheMu.Unlock()
				continue
			}
			if v, ok := s.results.get(key); ok {
				s.cacheMu.Unlock()
				// Equivalent queries (named vs SQL, or two SQL spellings)
				// share the entry under their canonical form; resp.Query
				// names this request's own.
				s.replay(&resp, v.(*Answer), start, bindWall, false)
				return resp, nil
			}
			if f, following = s.flights[key]; !following {
				f = &flight{done: make(chan struct{})}
				s.flights[key] = f
			}
			s.cacheMu.Unlock()
		}
		j = &job{req: resp.Request, shape: sh, snap: sn, q: q, canon: canon, key: key, bindWall: bindWall}
		if following {
			j.follow = f
			return resp, j
		}
		j.lead = f
		// NoCache requests and residency-dependent shapes (whose seconds
		// depend on device-cache state a batch never consults) never batch.
		j.batchable = !req.NoCache && !s.coprocResidency(sh) && !s.fleetResidency(sh)
		j.done = make(chan Response, 1)
		return resp, j
	}
}

// execute runs a queued job alone on the calling worker goroutine.
// queueWait is how long the job sat in the queue before this worker picked
// it up.
func (s *Service) execute(j *job, queueWait time.Duration) {
	start := time.Now()
	resp := Response{Request: j.req, Version: j.snap.version, Query: j.q, QueueWait: queueWait}
	defer s.complete(j, &resp)
	if s.execHook != nil {
		s.execHook(j.key)
	}
	if s.opts.ExecDelay > 0 {
		time.Sleep(s.opts.ExecDelay)
	}

	sn := j.snap
	plan, planCached, planWall := s.plan(sn, j.q, j.canon)
	resp.PlanCached = planCached
	rt, err := s.route(sn, j.shape, func(fl fleet.Spec, packed *ssb.PackedFact) (string, error) {
		choice, _, err := planner.ChoosePlacement(fl, sn.ds, j.q, plan.Morsels(j.shape.Partitions), packed)
		return choice, err
	})
	if err != nil {
		resp.Err = err
		return
	}
	sc, cpuFrac, err := plan.Schedule(rt.shape, rt.opts)
	if err != nil {
		resp.Err = err
		return
	}
	sr, err := plan.RunScheduled(sc)
	if err != nil {
		resp.Err = err
		return
	}
	resp.Answer = rt.report(sr, cpuFrac)
	resp.Wall = j.bindWall + time.Since(start)
	if s.recorder != nil {
		s.finishTrace(&resp, j.bindWall, planWall, sr.Trace)
	}
}

// complete is the one completion of an executed job, run alone or as a
// batch member: it stores the answer if it is replayable, completes the
// flight the job leads, records stats and replies. Executors defer it, so
// even a panic mid-execution releases the followers: the flight completes
// with ErrIncomplete.
func (s *Service) complete(j *job, resp *Response) {
	if resp.Answer == nil && resp.Err == nil {
		resp.Err = ErrIncomplete
	}
	// Store unconditionally, even when the dataset was swapped while this
	// job executed: the entry is keyed by the generation it ran against, so
	// no new request (which loads the current snapshot) can ever look it up
	// — but an in-flight straggler that resolved against the same old
	// snapshot can, and must find it rather than execute the key a second
	// time. Dead-generation entries merely age out of the LRU. The store
	// and the flight's removal share one critical section, so no identical
	// request can miss both the cache and the flight table while the answer
	// it should share exists. Residency-dependent answers are never cached;
	// see coprocResidency.
	cacheable := resp.Err == nil && !s.coprocResidency(j.shape) &&
		(!s.fleetResidency(j.shape) || (resp.TransferBytes == 0 && resp.ResidentCols == 0))
	s.cacheMu.Lock()
	if cacheable {
		s.results.put(j.key, resp.Answer)
	}
	if j.lead != nil {
		delete(s.flights, j.key)
	}
	s.cacheMu.Unlock()
	if f := j.lead; f != nil {
		f.answer, f.err = resp.Answer, resp.Err
		close(f.done)
	}
	if resp.Err != nil {
		s.recordError()
	} else {
		s.recordStats(resp)
	}
	j.done <- *resp
}

// unlead completes the flight j leads, if any, for a job that never
// executes, with that job's own admission outcome err; the followers see
// the flight abandoned and run their own lookup-or-lead.
func (s *Service) unlead(j *job, err error) {
	f := j.lead
	if f == nil {
		return
	}
	s.cacheMu.Lock()
	delete(s.flights, j.key)
	s.cacheMu.Unlock()
	f.err, f.abandoned = err, true
	close(f.done)
}

// drop settles a queued job that will never execute — expired in the queue
// (err is ErrExpired) or evicted by a higher-priority newcomer
// (ErrOverloaded): it counts the outcome, abandons the job's flight and
// replies.
func (s *Service) drop(j *job, err error) {
	if err == ErrExpired {
		s.recordExpired()
	} else {
		s.recordShed()
	}
	s.unlead(j, err)
	j.done <- Response{Request: j.req, Version: j.snap.version, QueueWait: time.Since(j.enqueued), Err: err}
}

// replay answers resp with an earlier execution's Answer — a result-cache
// entry or a completed flight's — by sharing the pointer: nothing is
// copied, since a served answer is read-only. It then stamps the
// cache/coalesce flags, finishes the trace and records stats.
func (s *Service) replay(resp *Response, a *Answer, start time.Time, bindWall time.Duration, coalesced bool) {
	resp.Answer = a
	resp.PlanCached = true
	resp.ResultCached = !coalesced
	resp.Coalesced = coalesced
	resp.Wall = time.Since(start)
	if s.recorder != nil {
		s.finishTrace(resp, bindWall, 0, nil)
	}
	s.recordStats(resp)
}

// finishTrace assembles the request's span tree — bind, admit (the queue
// wait), plan and the run span the scheduled execution built (nil for a
// result-cache hit, which gets a cache-hit marker instead) — and hands it
// to the flight recorder, stamping the Response with the recorded ID.
// Called only when tracing is enabled, once resp.Wall is final.
func (s *Service) finishTrace(resp *Response, bindWall, planWall time.Duration, runSpan *trace.Span) {
	root := &trace.Span{
		Phase: trace.PhaseRequest,
		Children: []*trace.Span{
			{Phase: trace.PhaseBind, Wall: bindWall},
			{Phase: trace.PhaseAdmit, Wall: resp.QueueWait},
		},
	}
	if runSpan != nil {
		root.Children = append(root.Children,
			&trace.Span{Phase: trace.PhasePlan, Wall: planWall, Cached: resp.PlanCached},
			runSpan)
		root.Sim = runSpan.Sim
	} else if resp.Coalesced {
		// Coalesced: the response replays a concurrent leader's execution;
		// this request's own work was waiting, not running.
		root.Children = append(root.Children, &trace.Span{Phase: trace.PhaseCoalesced, Cached: false})
	} else {
		// Result-cache hit: the response replays stored telemetry, but no
		// simulated execution happened in this request.
		root.Children = append(root.Children, &trace.Span{Phase: trace.PhaseCacheHit, Cached: true})
	}
	root.Wall = resp.QueueWait + resp.Wall
	tr := &trace.Trace{
		Query:        resp.Query.ID,
		Engine:       EngineAlias(resp.Request.Engine),
		Placement:    resp.Placement,
		GPUs:         resp.GPUs,
		Interconnect: resp.Interconnect,
		Cached:       resp.ResultCached,
		Start:        time.Now().Add(-root.Wall),
		Wall:         root.Wall,
		Sim:          root.Sim,
		Root:         root,
	}
	resp.TraceID = s.recorder.Add(tr)
	resp.Trace = tr
}

func (s *Service) recordStats(resp *Response) {
	s.statsMu.Lock()
	s.stats.record(resp)
	s.statsMu.Unlock()
}

// failed completes resp with err and counts the error.
func (s *Service) failed(resp *Response, err error) Response {
	resp.Err = err
	s.recordError()
	return *resp
}

func (s *Service) recordError() {
	s.statsMu.Lock()
	s.stats.Errors++
	s.stats.Requests++
	s.statsMu.Unlock()
}

func (s *Service) recordShed() {
	s.statsMu.Lock()
	s.stats.Shed++
	s.statsMu.Unlock()
}

func (s *Service) recordExpired() {
	s.statsMu.Lock()
	s.stats.Expired++
	s.statsMu.Unlock()
}

// recordBatch tallies one shared-scan batch execution; the batch's size is
// visible as the per-response batchedRequests delta, and the byte pair
// carries the shared-vs-solo scan traffic the batch deduplicated.
func (s *Service) recordBatch(sharedBytes, soloBytes int64) {
	s.statsMu.Lock()
	s.stats.Batches++
	s.stats.BatchSharedScanBytes += sharedBytes
	s.stats.BatchSoloScanBytes += soloBytes
	s.statsMu.Unlock()
}

// cacheKey joins key parts with NUL, which cannot appear in query ids,
// engine names or versions.
func cacheKey(parts ...string) string { return strings.Join(parts, "\x00") }

// The placements a request may name. PlacementAuto defers to
// planner.ChoosePlacement; the other three force one of the host-resident
// placements the unified scheduler executes.
const (
	PlacementAuto   = queries.PlacementAuto
	PlacementCPU    = queries.PlacementCPU
	PlacementGPU    = queries.PlacementGPU
	PlacementHybrid = queries.PlacementHybrid
)

// ParsePlacement canonicalizes a requested placement ("auto", "cpu",
// "gpu" or "hybrid", case-insensitive).
func ParsePlacement(name string) (string, error) { return queries.ParsePlacement(name) }

// ParseEngine resolves an engine from its full name ("Standalone GPU") or
// a short alias ("gpu", "cpu", "hyper", "monet", "omnisci", "coproc").
func ParseEngine(name string) (queries.Engine, error) { return queries.ParseEngine(name) }

// EngineAlias returns the canonical short alias for an engine.
func EngineAlias(e queries.Engine) string { return queries.EngineAlias(e) }
