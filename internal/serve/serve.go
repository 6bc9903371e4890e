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
	"time"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/planner"
	"crystal/internal/queries"
	"crystal/internal/sched"
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
	// one device; fleet requests must name the Standalone GPU engine.
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
	Deadline time.Duration
	// Priority orders the pending queue: higher priorities are picked up
	// first, equal priorities FIFO. Under Options.Shed, a full queue
	// admits a newcomer by shedding a strictly lower-priority pending
	// request when one exists. 0 is the default class.
	Priority int
}

// Response is the outcome of one request.
type Response struct {
	Request Request
	// Version is the dataset version the request executed against.
	Version string
	// Query is the resolved (and, for SQL requests, planner-ordered) query
	// the service executed; callers use it to decode result group keys.
	Query queries.Query
	// Adhoc reports whether the request came through the SQL frontend.
	Adhoc  bool
	Result *queries.Result
	// SimSeconds is the engine's simulated device time (Result.Seconds).
	SimSeconds float64
	// Wall is the host wall-clock time the service spent producing the
	// result (near zero on a result-cache hit).
	Wall time.Duration
	// PlanCached and ResultCached report whether the compiled plan and the
	// result were served from cache.
	PlanCached   bool
	ResultCached bool
	// Coalesced reports single-flight sharing: this request missed the
	// result cache but found an identical request (same result-cache key,
	// same dataset generation) already executing, waited for it, and
	// replayed its rows and telemetry — charged only its own queue and
	// wait time, never a second execution.
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
	// Morsels and Pruned report the partitioned-execution outcome: how many
	// morsels the fact scan was split into (1 for monolithic runs) and how
	// many of them zone maps skipped.
	Morsels int
	Pruned  int
	// Packed reports whether the request scanned the bit-packed fact
	// encoding. TransferBytes is the PCIe traffic a coprocessor request
	// actually shipped, and ResidentCols the referenced fact columns the
	// device residency cache served without any transfer.
	Packed        bool
	TransferBytes int64
	ResidentCols  int
	// GPUs and Interconnect echo the normalized fleet shape a fleet
	// request ran on (0/"" for single-device requests); Devices carries
	// the per-device execution telemetry and MergeBytes the
	// partial-aggregate traffic that crossed the interconnect.
	GPUs         int
	Interconnect string
	Devices      []queries.FleetDevice
	MergeBytes   int64
	// Placement is the resolved placement a placement-routed request ran
	// ("cpu", "gpu" or "hybrid" — an "auto" request reports what the
	// planner chose; empty for classic dispatch). CPUFrac is the live-row
	// fraction the schedule routed to the CPU arm, and Executors carries
	// the per-executor telemetry, whose counters sum to the response
	// totals.
	Placement string
	CPUFrac   float64
	Executors []queries.ExecutorResult
	// QueueWait is the time the request sat in the queue before a worker
	// picked it up (not included in Wall, which clocks execution only).
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
	// ErrOverloaded) and the newcomer admitted.
	Shed bool
	// ExecDelay adds a fixed wall-clock delay to every real engine
	// execution (cache hits and coalesced followers are unaffected). The
	// simulated engines finish in microseconds of wall time, so overload
	// tests and load experiments use this to emulate a slow backend
	// deterministically: N slow executions against a bounded queue must
	// shed on any machine. Zero (the default) adds nothing. A shared-scan
	// batch pays the delay once for the whole batch — the wall-clock form
	// of the scan it shares.
	ExecDelay time.Duration
	// MaxBatch enables shared-scan batching of compatible queries: at
	// pickup a worker drains up to MaxBatch-1 pending requests that are
	// scan-compatible with the picked job (same engine/partitions/packed
	// mode/fleet shape, overlapping fact-column footprint —
	// queries.Compatible) and executes the whole batch through one shared
	// morsel scan (queries.RunBatchScheduled), charging shared column traffic
	// once. Each member's rows and simulated seconds are identical to its
	// solo run. 0 or 1 disables batching (the default). Batched executions
	// bypass the result cache and single-flight coalescing — they are
	// multi-query units the per-key machinery cannot represent — and never
	// consult residency caches; NoCache requests and residency-dependent
	// shapes are never batched.
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
// wait on. The leader closes done after publishing either resp (a
// cache-entry-shaped Response followers clone from, like a cache hit) or
// err. Registration and completion both happen under cacheMu together
// with the result-cache lookup, so for any (key, generation) exactly one
// of three states is ever observable: cached, in flight, or absent.
type flight struct {
	done chan struct{}
	resp *Response
	err  error
}

// Service executes SSB query requests concurrently over one dataset.
type Service struct {
	opts Options

	mu      sync.RWMutex // guards ds, version, gen, closed
	ds      *ssb.Dataset
	version string
	// gen is a monotonic dataset generation. Cache keys embed gen, not the
	// version label, so reusing a label (rollback, redeploy) can never
	// resurrect entries compiled against different data.
	gen    uint64
	closed bool

	// cacheMu guards the LRUs (lookups reorder the recency list, so even
	// reads are writes); it is separate from mu so the cache-hit fast path
	// never contends with dataset snapshots. Plan and result keys use the
	// query's canonical form (queries.Query.Canonical), not its ID, so two
	// SQL spellings of one statement — whitespace, comments, filter order —
	// share entries, as does a named query whose catalog plan coincides
	// with the bound form. Distinct canonical forms never collide, which
	// keeps served simulated seconds deterministic.
	cacheMu sync.Mutex
	plans   *lru // "gen\x00canonical" -> *planEntry
	results *lru // "gen\x00canonical\x00engine" -> *Response
	binds   *lru // "gen\x00sql text" -> *boundSQL
	// flights are the in-progress executions coalesceable misses join,
	// keyed like the result cache. Guarded by cacheMu — the same lock as
	// the results LRU — so "check cache, join flight or become leader"
	// is one atomic step and a (key, generation) can never execute twice.
	flights map[string]*flight

	// execHook, when set (tests only, before any traffic), observes every
	// real engine execution with its result-cache key; coalesced and
	// cache-hit responses never fire it. flightHook observes a follower
	// just before it waits on an in-progress flight.
	execHook   func(resultKey string)
	flightHook func()

	// stats is the running tally; Stats() copies it under statsMu.
	statsMu sync.Mutex
	stats   Stats

	// packedMu guards the lazily built packed fact encoding: one per
	// dataset generation, shared by every packed request and plan. The
	// first packed request of a generation pays the one-pass packing cost;
	// concurrent firsts serialize on the mutex.
	packedMu  sync.Mutex
	packed    *ssb.PackedFact
	packedGen uint64

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
	// request (see Options.MorselHelpers).
	morsels gate

	// queue is the pending-request priority queue workers pop from. In
	// the default blocking mode, slots is a QueueDepth-sized semaphore:
	// submit acquires a slot (waiting under its context) before pushing
	// and the popping worker releases it. Under Options.Shed, slots is
	// nil and the depth check lives in queue.offer.
	queue *jobQueue
	slots chan struct{}
	wg    sync.WaitGroup
	// pending counts Submit calls that have passed the closed check but not
	// yet enqueued; Close waits for them before closing the queue.
	pending sync.WaitGroup
}

// New starts a service over ds, identified by version, with opts.Workers
// executor goroutines. Close releases them.
func New(ds *ssb.Dataset, version string, opts Options) *Service {
	s := &Service{
		opts:    opts.withDefaults(),
		ds:      ds,
		version: version,
	}
	s.plans = newLRU(s.opts.PlanCacheSize)
	s.results = newLRU(s.opts.ResultCacheSize)
	s.binds = newLRU(s.opts.BindCacheSize)
	if s.opts.DeviceCacheBytes > 0 {
		s.devCache = newDeviceCache(s.opts.DeviceCacheBytes, s.gen)
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
				wait := time.Since(j.enqueued)
				if j.req.Deadline > 0 && wait >= j.req.Deadline {
					// Expired in the queue: executing it would waste a
					// worker on an answer nobody is waiting for.
					s.recordExpired()
					j.done <- Response{Request: j.req, QueueWait: wait, Err: ErrExpired}
					continue
				}
				if peers := s.formBatch(j); len(peers) > 0 {
					s.executeBatch(j, wait, peers)
					continue
				}
				j.done <- s.execute(j.req, wait)
			}
		}()
	}
	return s
}

// Workers returns the execution pool size.
func (s *Service) Workers() int { return s.opts.Workers }

// TraceRecorder returns the service's flight recorder of recent and
// slowest traces, or nil when tracing is disabled (Options.Trace).
func (s *Service) TraceRecorder() *trace.Recorder { return s.recorder }

// Version returns the current dataset version.
func (s *Service) Version() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// SetDataset atomically swaps in a new dataset under a new version and
// drops every cached plan and result: entries are keyed by version, so
// nothing compiled against the old data can ever be served again.
//
// The generation bump and the purge happen under one cacheMu critical
// section — the same lock the execute path's lookup-or-lead section
// holds while it re-checks the generation. That makes the swap atomic
// from the lookup's point of view: a request either runs entirely
// before it (and finds the old generation's entries intact) or entirely
// after (and retries against the new generation). Bumping and purging
// in two separate sections allowed a full lead→store→complete cycle to
// slip between them, after which the swap's own late purge deleted the
// stored entry while its generation was still current — and the next
// identical request re-executed it. Lock order is cacheMu → s.mu,
// matching generation() calls made under cacheMu; nothing acquires
// cacheMu while holding s.mu.
func (s *Service) SetDataset(version string, ds *ssb.Dataset) {
	s.cacheMu.Lock()
	s.mu.Lock()
	s.ds = ds
	s.version = version
	s.gen++
	gen := s.gen
	s.mu.Unlock()
	s.plans.purge()
	s.results.purge()
	s.binds.purge()
	s.cacheMu.Unlock()
	s.packedMu.Lock()
	s.packed = nil
	s.packedMu.Unlock()
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
	shape := strconv.Itoa(gpus) + "x" + strconv.Itoa(partitions)
	s.fleetMu.Lock()
	for len(s.fleetCaches) < gpus {
		s.fleetCaches = append(s.fleetCaches, newDeviceCache(s.opts.DeviceCacheBytes, s.generation()))
	}
	out := make([]queries.Residency, gpus)
	for i := range out {
		out[i] = shapedResidency{cache: s.fleetCaches[i], gen: gen, shape: shape}
	}
	s.fleetMu.Unlock()
	return out
}

// packedFact returns the packed fact encoding for the generation's dataset,
// building it on first use and rebuilding after a dataset swap. A stale
// in-flight request (its generation raced past by SetDataset) gets a
// transient packing instead of evicting the live one — otherwise
// interleaved old/new requests would re-pack the fact table per request.
func (s *Service) packedFact(gen uint64, ds *ssb.Dataset) *ssb.PackedFact {
	s.packedMu.Lock()
	defer s.packedMu.Unlock()
	if s.packed != nil && s.packedGen == gen {
		return s.packed
	}
	pf := ds.Pack()
	if s.generation() == gen {
		s.packed = pf
		s.packedGen = gen
	}
	return pf
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

// Submit enqueues a request on the worker pool and returns a channel that
// receives the single response. In the default blocking mode a full
// queue applies backpressure: Submit waits for space, and ctx bounds the
// wait — the context is checked before and during the enqueue, so a
// cancelled context never blocks on a full queue. Under Options.Shed a
// full queue instead fails fast with ErrOverloaded (see Options.Shed for
// the priority-eviction carve-out).
func (s *Service) Submit(ctx context.Context, req Request) (<-chan Response, error) {
	return s.submit(ctx, req)
}

func (s *Service) submit(ctx context.Context, req Request) (<-chan Response, error) {
	done := make(chan Response, 1)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	// Registering under the read lock orders this submission before any
	// Close: the worker pool stays up until the enqueue below lands.
	s.pending.Add(1)
	s.mu.RUnlock()
	defer s.pending.Done()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j := &job{req: req, done: done}
	if s.slots == nil {
		// Shed mode: admission is decided now, under the queue lock.
		j.enqueued = time.Now()
		pushed, victim, expired := s.queue.offer(j, s.opts.QueueDepth)
		for _, e := range expired {
			// Deadline-dead jobs dropped by the full-queue scan complete here
			// with the same response shape worker pickup would have produced;
			// the slots they held now admit live work instead of forcing a
			// shed or an eviction.
			s.recordExpired()
			e.done <- Response{Request: e.req, QueueWait: time.Since(e.enqueued), Err: ErrExpired}
		}
		if victim != nil {
			s.recordShed()
			victim.done <- Response{Request: victim.req, QueueWait: time.Since(victim.enqueued), Err: ErrOverloaded}
		}
		if !pushed {
			s.recordShed()
			return nil, ErrOverloaded
		}
		return done, nil
	}
	select {
	case s.slots <- struct{}{}:
		j.enqueued = time.Now()
		s.queue.push(j)
		return done, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Do executes one request synchronously, honoring ctx cancellation both
// while the request waits for queue space and while it waits for a worker.
// A request cancelled after enqueueing still completes in the background;
// its response is discarded. When the request sets no Deadline of its
// own, Do derives one from ctx's deadline, so a deadline-bounded call
// also sheds dead at worker pickup instead of executing unobserved.
func (s *Service) Do(ctx context.Context, req Request) (Response, error) {
	if req.Deadline == 0 {
		if dl, ok := ctx.Deadline(); ok {
			if budget := time.Until(dl); budget > 0 {
				req.Deadline = budget
			}
		}
	}
	done, err := s.submit(ctx, req)
	if err != nil {
		return Response{}, err
	}
	select {
	case resp := <-done:
		return resp, resp.Err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// RunAll dispatches the batch across the worker pool and returns the
// responses in request order. Per-request failures are reported in each
// Response.Err; the returned error covers submission only.
func (s *Service) RunAll(ctx context.Context, reqs []Request) ([]Response, error) {
	chans := make([]<-chan Response, len(reqs))
	for i, req := range reqs {
		done, err := s.submit(ctx, req)
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
func (s *Service) resolve(ds *ssb.Dataset, gen uint64, req Request) (queries.Query, string, error) {
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
		bindKey := cacheKey(strconv.FormatUint(gen, 10), "sql", req.SQL)
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
		q = planner.OptimizeGrouped(device.V100(), ds, q)
		b := &boundSQL{q: q, canon: q.Canonical()}
		if s.generation() == gen {
			s.cacheMu.Lock()
			s.binds.put(bindKey, b)
			s.cacheMu.Unlock()
		}
		return b.q, b.canon, nil
	default:
		return queries.Query{}, "", errors.New("serve: request names no query (set QueryID or SQL)")
	}
}

// normalize canonicalizes the request fields that do not depend on the
// dataset — engine aliases, the placement and interconnect spellings, the
// GPU arm's default size, negative counts, and the morsel-count floor a
// fleet (GPUs) or placement (GPUs+1, every arm can own a morsel) schedule
// raises small partition counts to — so every spelling of one request
// dispatches, batches and caches alike. It returns the error a request with
// an unparseable field is answered with; the batch former treats that as
// "not batchable" and leaves the request for the solo path to report.
func normalize(req Request) (Request, fleet.Interconnect, error) {
	var link fleet.Interconnect
	// Placement requests may leave the engine empty — the placement router
	// owns engine choice and runs the tile-based kernels on its GPU arms.
	engine := queries.EngineGPU
	if req.Engine != "" || req.Placement == "" {
		var err error
		if engine, err = ParseEngine(string(req.Engine)); err != nil {
			return req, link, err
		}
	}
	req.Engine = engine
	req.Partitions = max(req.Partitions, 0)
	req.GPUs = max(req.GPUs, 0)
	floor := req.GPUs // morsels a fleet schedule needs: one per device
	switch {
	case req.Placement != "":
		placement, err := ParsePlacement(req.Placement)
		if err != nil {
			return req, link, err
		}
		req.Placement = placement
		if engine != queries.EngineGPU {
			return req, link, fmt.Errorf(
				"serve: placement routing owns engine choice; leave Engine empty or name %q, got %q",
				queries.EngineGPU, engine)
		}
		req.GPUs = max(req.GPUs, 1) // the GPU arm's default fleet size
		floor = req.GPUs + 1
	case req.GPUs > 0:
		if engine != queries.EngineGPU {
			return req, link, fmt.Errorf(
				"serve: fleet execution runs the tile-based kernels; engine must be %q, got %q",
				queries.EngineGPU, engine)
		}
	default:
		req.Interconnect = ""
		return req, link, nil
	}
	link, err := fleet.ParseInterconnect(req.Interconnect)
	if err != nil {
		return req, link, err
	}
	req.Interconnect = link.Name
	req.Partitions = max(req.Partitions, floor)
	return req, link, nil
}

// effective clamps a normalized fleet or placement request's morsel count
// to the one the dataset's shard map actually has (ssb.Partition caps it at
// the tile count), so requests that execute the same split share result
// keys and residency pins.
func effective(req Request, rows int) Request {
	if req.Placement != "" || req.GPUs > 0 {
		if eff := ssb.EffectivePartitions(rows, req.Partitions); eff > 0 {
			req.Partitions = eff
		}
	}
	return req
}

// resultKey is the result-cache and single-flight key of a normalized,
// effective request at dataset generation gen. The partition count and
// encoding are part of the result identity: rows always agree, but a pruned
// partitioned run or a packed run reports different
// Seconds/Morsels/Pruned/TransferBytes than a plain monolithic one, and
// those must replay deterministically. The requested placement joins the key
// too ("auto" stays "auto": the planner's choice is deterministic per
// generation, so the cached response replays it exactly).
func resultKey(gen uint64, canon string, req Request) string {
	return cacheKey(strconv.FormatUint(gen, 10), canon, string(req.Engine), strconv.Itoa(req.Partitions),
		packedKey(req.Packed), strconv.Itoa(req.GPUs), req.Interconnect, req.Placement)
}

// coprocResidency and fleetResidency report whether a normalized request's
// simulated seconds depend on device-cache state (cold vs warm transfer).
// Such responses are not replayable: coprocessor residency requests bypass
// the result cache and single-flight entirely, and packed fleet requests
// with per-device caches enabled may still look up — only responses that
// touched no residency state (nothing spilled, nothing resident) are ever
// stored, and those are deterministic. Neither shape is ever batched.
// Placement runs never consult residency caches.
func (s *Service) coprocResidency(req Request) bool {
	return req.Packed && req.Engine == queries.EngineCoproc && s.devCache != nil
}

func (s *Service) fleetResidency(req Request) bool {
	return req.Placement == "" && req.GPUs > 0 && req.Packed && s.devCache != nil && s.opts.FleetDeviceMemoryBytes > 0
}

// plan returns the compiled plan for q through the plan cache: a
// once-guarded entry is installed on a miss so concurrent misses for the
// same (generation, canonical query) compile a single plan. The install is
// skipped if the dataset moved on since the snapshot — the entry would be
// keyed by a dead generation and only waste an LRU slot.
func (s *Service) plan(ds *ssb.Dataset, gen uint64, q queries.Query, canon string) (plan *queries.Plan, cached bool, wall time.Duration) {
	key := cacheKey(strconv.FormatUint(gen, 10), canon)
	s.cacheMu.Lock()
	var entry *planEntry
	if v, ok := s.plans.get(key); ok {
		entry, cached = v.(*planEntry), true
	} else {
		entry = &planEntry{}
		if s.generation() == gen {
			s.plans.put(key, entry)
		}
	}
	s.cacheMu.Unlock()
	start := time.Now()
	entry.once.Do(func() { entry.plan = queries.Compile(ds, q) })
	return entry.plan, cached, time.Since(start)
}

// route is the execution shape of one normalized, effective request: its
// run options and placement resolved, ready to schedule any plan compiled
// for it. It is the one place a request becomes a sched.Schedule — a solo
// execution schedules its plan through it, a shared-scan batch every
// member's.
type route struct {
	req  Request
	fl   fleet.Spec // the fleet, or a placement's GPU arm
	opts queries.RunOptions
	// placement is the resolved placement ("auto" replaced by the planner's
	// choice; empty for classic dispatch) and cpuFrac the live-row share a
	// hybrid schedule routed to the CPU arm, known once schedule has run.
	placement string
	cpuFrac   float64
}

// route resolves req's run options, fleet shape and placement. auto is
// consulted for "auto" placements only: the planner's choice among the
// host-resident placements, deterministic per generation (same dataset,
// same morsel map, same choice — which is what lets "auto" responses
// cache).
func (s *Service) route(ds *ssb.Dataset, gen uint64, req Request, link fleet.Interconnect,
	auto func(fleet.Spec, *ssb.PackedFact) (planner.Placement, error)) (*route, error) {
	r := &route{req: req, placement: req.Placement}
	r.opts.Partition.Partitions = req.Partitions
	r.opts.Partition.Limiter = s.morsels
	r.opts.Trace = s.recorder != nil
	if req.Packed {
		r.opts.Partition.Packed = s.packedFact(gen, ds)
		switch {
		case s.fleetResidency(req):
			r.opts.Fleet.Residency = s.fleetResidencies(gen, req.GPUs, req.Partitions)
		case s.coprocResidency(req):
			r.opts.Partition.Residency = boundResidency{cache: s.devCache, gen: gen}
		}
	}
	switch {
	case req.Placement != "":
		r.fl = fleet.Spec{GPUs: req.GPUs, Link: link}
		if req.Placement == PlacementAuto {
			choice, err := auto(r.fl, r.opts.Partition.Packed)
			if err != nil {
				return nil, err
			}
			r.placement = string(choice)
		}
	case req.GPUs > 0:
		dev := device.V100()
		if s.opts.FleetDeviceMemoryBytes > 0 {
			d := *dev
			d.MemoryBytes = s.opts.FleetDeviceMemoryBytes
			dev = &d
		}
		r.fl = fleet.Spec{GPUs: req.GPUs, Device: dev, Link: link}
	}
	return r, nil
}

// schedule places plan p the way the request asked: a placement co-executes
// the CPU and GPU arms over a split of the morsels (pure CPU and pure GPU
// are its end points), a fleet request range-shards them over the devices,
// and classic dispatch runs them all on the named engine.
func (r *route) schedule(p *queries.Plan) (sched.Schedule, error) {
	switch {
	case r.placement != "":
		frac := -1.0 // hybrid: the throughput-balanced default split
		switch r.placement {
		case PlacementCPU:
			frac = 1
		case PlacementGPU:
			frac = 0
		}
		sc, resolved, err := p.ScheduleHybrid(r.fl, frac, r.opts)
		r.cpuFrac = resolved
		return sc, err
	case r.req.GPUs > 0:
		return p.ScheduleFleet(r.fl, r.opts)
	default:
		return p.ScheduleEngine(r.req.Engine, r.opts), nil
	}
}

// report copies a scheduled run's outcome into the response in the wire
// shape of the request's dispatch: placement requests report their
// executors, fleet requests the fleet-shaped per-device view.
func (r *route) report(resp *Response, sr *queries.ScheduledResult) {
	resp.Result = sr.Result
	resp.Result.QueryID = resp.Query.ID
	resp.SimSeconds = sr.Result.Seconds
	resp.Morsels = sr.Result.Morsels
	resp.Pruned = sr.Result.Pruned
	resp.TransferBytes = sr.Result.TransferBytes
	resp.ResidentCols = sr.Result.ResidentCols
	switch {
	case r.placement != "":
		resp.Placement = r.placement
		resp.CPUFrac = r.cpuFrac
		resp.Executors = sr.Executors
	case r.req.GPUs > 0:
		resp.Devices = queries.FleetDevices(sr.Executors)
	default:
		return
	}
	resp.GPUs = r.req.GPUs
	resp.Interconnect = r.req.Interconnect
	resp.MergeBytes = sr.MergeBytes
}

// stored returns the copy of an executed response that caches and flights
// keep: its own Result and telemetry slices (the caller owns the ones it was
// handed and may mutate them), and none of the per-request observations —
// traces, queue wait and batch provenance are never replayed.
func stored(resp *Response) *Response {
	c := *resp
	c.Result = resp.Result.Clone()
	c.Devices = append([]queries.FleetDevice(nil), resp.Devices...)
	c.Executors = append([]queries.ExecutorResult(nil), resp.Executors...)
	c.Trace = nil
	c.TraceID = ""
	c.QueueWait = 0
	c.Batched = false
	c.BatchSize = 0
	c.BatchShareSeconds = 0
	return &c
}

// execute runs one request on the calling worker goroutine. queueWait is
// how long the request sat in the queue before this worker picked it up.
func (s *Service) execute(req Request, queueWait time.Duration) Response {
	start := time.Now()
	norm, link, err := normalize(req)
	if err != nil {
		s.recordError()
		return Response{Request: req, Err: err}
	}
	resp := Response{Request: norm, Adhoc: norm.SQL != "", Packed: norm.Packed, QueueWait: queueWait}
	coalesceable := !norm.NoCache && !s.coprocResidency(norm)

	// Snapshot → resolve → lookup-or-lead runs in a retry loop. SetDataset
	// bumps the generation and then purges the caches, so a request that
	// snapshotted the old generation and stalled could arrive at the
	// lookup after its key's leader already ran and was purged away — and
	// would then execute that (key, generation) a second time. The lookup
	// critical section re-checks that the snapshotted generation is still
	// current and starts over when it is not, which makes lookup-or-lead
	// atomic with respect to the swap's bump-then-purge and keeps
	// exactly-one-execution per (key, generation) strict.
	var (
		ds       *ssb.Dataset
		gen      uint64
		q        queries.Query
		canon    string
		bindWall time.Duration
		key      string
	)
	for {
		s.mu.RLock()
		ds, resp.Version, gen = s.ds, s.version, s.gen
		s.mu.RUnlock()
		req = effective(norm, ds.Lineorder.Rows())
		resp.Request = req

		// bindWall times query resolution for the trace's bind span; stamped
		// unconditionally (two clock reads), consumed only when tracing.
		bindStart := time.Now()
		q, canon, err = s.resolve(ds, gen, req)
		bindWall = time.Since(bindStart)
		if err != nil {
			return s.failed(&resp, err)
		}
		resp.Query = q
		key = resultKey(gen, canon, req)
		// Cache lookup and single-flight formation are one critical section
		// under cacheMu: a coalesceable request either hits the cache, joins
		// the in-progress flight for its key, or registers itself as the
		// leader — so for any (key, generation) at most one execution ever
		// runs, no matter how the misses interleave with the leader's fill.
		if !coalesceable {
			break
		}
		s.cacheMu.Lock()
		if s.generation() != gen {
			// The dataset moved between the snapshot and this critical
			// section: the swap's purge may have dropped this generation's
			// entries, so executing now could repeat a key that already
			// ran. Start over against the new generation.
			s.cacheMu.Unlock()
			continue
		}
		if v, ok := s.results.get(key); ok {
			s.cacheMu.Unlock()
			// Hand out a copy: callers may mutate Groups in place, and the
			// cached rows must stay identical to sequential execution. The
			// id is rewritten because equivalent queries (named vs SQL, or
			// two SQL spellings) share the entry under their canonical form.
			s.replay(&resp, v.(*Response), q, start, queueWait, bindWall, false)
			return resp
		}
		if f, ok := s.flights[key]; ok {
			s.cacheMu.Unlock()
			// Follower: an identical request is already executing against
			// this generation. Wait for the leader and replay its outcome —
			// this request is charged only the time it spent waiting.
			if s.flightHook != nil {
				s.flightHook()
			}
			<-f.done
			if f.err != nil || f.resp == nil {
				err := f.err
				if err == nil {
					err = errors.New("serve: coalesced execution did not complete")
				}
				return s.failed(&resp, err)
			}
			s.replay(&resp, f.resp, q, start, queueWait, bindWall, true)
			return resp
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		// Deferred so even a panicking leader releases its followers.
		defer s.completeFlight(f, key, &resp)
		s.cacheMu.Unlock()
		break
	}
	if s.execHook != nil {
		s.execHook(key)
	}
	if s.opts.ExecDelay > 0 {
		time.Sleep(s.opts.ExecDelay)
	}

	plan, planCached, planWall := s.plan(ds, gen, q, canon)
	resp.PlanCached = planCached
	rt, err := s.route(ds, gen, req, link, func(fl fleet.Spec, packed *ssb.PackedFact) (planner.Placement, error) {
		choice, _, err := planner.ChoosePlacement(fl, ds, q, plan.Morsels(req.Partitions), packed)
		return choice, err
	})
	if err != nil {
		return s.failed(&resp, err)
	}
	sc, err := rt.schedule(plan)
	if err != nil {
		return s.failed(&resp, err)
	}
	sr, err := plan.RunScheduled(sc)
	if err != nil {
		return s.failed(&resp, err)
	}
	rt.report(&resp, sr)
	resp.Wall = time.Since(start)
	if s.recorder != nil {
		s.finishTrace(&resp, start, queueWait, bindWall, planWall, sr.Trace)
	}

	// Store unconditionally, even when the dataset was swapped while this
	// request executed: the entry is keyed by the generation it ran
	// against, so no new request (which snapshots the current generation)
	// can ever look it up — but an in-flight straggler that snapshotted
	// the same old generation can, and must find it rather than execute
	// the key a second time. That store-after-swap is what keeps
	// exactly-one-execution per (key, generation) strict; dead-generation
	// entries merely age out of the LRU. Residency-dependent responses
	// are never cached; see coprocResidency.
	cacheable := !s.coprocResidency(req) &&
		(!s.fleetResidency(req) || (resp.TransferBytes == 0 && resp.ResidentCols == 0))
	if cacheable {
		s.cacheMu.Lock()
		s.results.put(key, stored(&resp))
		s.cacheMu.Unlock()
	}
	s.recordStats(&resp)
	return resp
}

// replay fills resp from a stored execution — a result-cache entry or a
// completed flight's published response — cloning the result and
// telemetry slices so the caller owns what it receives, then stamps the
// cache/coalesce flags, finishes the trace and records stats.
func (s *Service) replay(resp *Response, stored *Response, q queries.Query, start time.Time, queueWait, bindWall time.Duration, coalesced bool) {
	resp.Result = stored.Result.Clone()
	resp.Result.QueryID = q.ID
	resp.SimSeconds = stored.SimSeconds
	resp.Morsels = stored.Morsels
	resp.Pruned = stored.Pruned
	resp.TransferBytes = stored.TransferBytes
	resp.ResidentCols = stored.ResidentCols
	resp.GPUs = stored.GPUs
	resp.Interconnect = stored.Interconnect
	resp.Devices = append([]queries.FleetDevice(nil), stored.Devices...)
	resp.MergeBytes = stored.MergeBytes
	resp.Placement = stored.Placement
	resp.CPUFrac = stored.CPUFrac
	resp.Executors = append([]queries.ExecutorResult(nil), stored.Executors...)
	resp.PlanCached = true
	resp.ResultCached = !coalesced
	resp.Coalesced = coalesced
	resp.Wall = time.Since(start)
	if s.recorder != nil {
		s.finishTrace(resp, start, queueWait, bindWall, 0, nil)
	}
	s.recordStats(resp)
}

// completeFlight publishes the leader's outcome on its flight and
// releases the followers. The flight is deleted under cacheMu strictly
// after the leader's cache store in the execute body, so no identical
// request can ever miss both the cache and the flight table while an
// execution it should have shared is still running. Deferred from the
// leader's execute, so even a panic releases followers (they observe a
// flight with neither resp nor err and synthesize an error).
func (s *Service) completeFlight(f *flight, key string, resp *Response) {
	if resp.Err == nil && resp.Result != nil {
		// Followers clone from the stored copy the same way cache hits
		// clone, and never share mutable state with the leader's caller.
		f.resp = stored(resp)
	} else {
		f.err = resp.Err
	}
	s.cacheMu.Lock()
	delete(s.flights, key)
	s.cacheMu.Unlock()
	close(f.done)
}

// finishTrace assembles the request's span tree — admit, bind, plan and
// the run span the scheduled execution built (nil for a result-cache hit,
// which gets a cache-hit marker instead) — and hands it to the flight
// recorder, stamping the Response with the recorded ID. Called only when
// tracing is enabled.
func (s *Service) finishTrace(resp *Response, start time.Time, queueWait, bindWall, planWall time.Duration, runSpan *trace.Span) {
	root := &trace.Span{
		Phase: trace.PhaseRequest,
		Children: []*trace.Span{
			{Phase: trace.PhaseAdmit, Wall: queueWait},
			{Phase: trace.PhaseBind, Wall: bindWall},
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
	root.Wall = queueWait + time.Since(start)
	tr := &trace.Trace{
		Query:        resp.Query.ID,
		Engine:       EngineAlias(resp.Request.Engine),
		Placement:    resp.Placement,
		GPUs:         resp.GPUs,
		Interconnect: resp.Interconnect,
		Cached:       resp.ResultCached,
		Start:        start.Add(-queueWait),
		Wall:         root.Wall,
		Sim:          root.Sim,
		Root:         root,
	}
	resp.TraceID = s.recorder.Add(tr)
	resp.Trace = tr
}

func (s *Service) generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
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

// packedKey renders the encoding choice for cache keys.
func packedKey(packed bool) string {
	if packed {
		return "packed"
	}
	return "plain"
}

// The placements a request may name. PlacementAuto defers to
// planner.ChoosePlacement; the other three force one of the host-resident
// placements the unified scheduler executes.
const (
	PlacementAuto   = "auto"
	PlacementCPU    = string(planner.PlaceCPU)
	PlacementGPU    = string(planner.PlaceGPU)
	PlacementHybrid = string(planner.PlaceHybrid)
)

// ParsePlacement canonicalizes a requested placement ("auto", "cpu",
// "gpu" or "hybrid", case-insensitive).
func ParsePlacement(name string) (string, error) {
	switch p := strings.ToLower(strings.TrimSpace(name)); p {
	case PlacementAuto, PlacementCPU, PlacementGPU, PlacementHybrid:
		return p, nil
	default:
		return "", fmt.Errorf("serve: unknown placement %q (want auto, cpu, gpu or hybrid)", name)
	}
}

// engineAliases maps short names (CLI/HTTP friendly) to engines.
var engineAliases = map[string]queries.Engine{
	"gpu":     queries.EngineGPU,
	"cpu":     queries.EngineCPU,
	"hyper":   queries.EngineHyper,
	"monet":   queries.EngineMonet,
	"monetdb": queries.EngineMonet,
	"omnisci": queries.EngineOmnisci,
	"coproc":  queries.EngineCoproc,
}

// ParseEngine resolves an engine from its full name ("Standalone GPU") or
// a short alias ("gpu", "cpu", "hyper", "monet", "omnisci", "coproc").
func ParseEngine(name string) (queries.Engine, error) {
	for _, e := range queries.Engines() {
		if string(e) == name {
			return e, nil
		}
	}
	if e, ok := engineAliases[strings.ToLower(strings.TrimSpace(name))]; ok {
		return e, nil
	}
	return "", fmt.Errorf("serve: unknown engine %q", name)
}

// EngineAlias returns the canonical short alias for an engine.
func EngineAlias(e queries.Engine) string {
	switch e {
	case queries.EngineGPU:
		return "gpu"
	case queries.EngineCPU:
		return "cpu"
	case queries.EngineHyper:
		return "hyper"
	case queries.EngineMonet:
		return "monet"
	case queries.EngineOmnisci:
		return "omnisci"
	case queries.EngineCoproc:
		return "coproc"
	}
	return string(e)
}
