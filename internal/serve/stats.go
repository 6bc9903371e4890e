package serve

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"crystal/internal/bench"
	"crystal/internal/queries"
	"crystal/internal/trace"
)

// placementLabel buckets a response for the latency histograms: the
// resolved placement for scheduler-routed requests, "fleet" for classic
// multi-GPU dispatch, "classic" for plain engine dispatch. Returns only
// static or already-allocated strings — the hot path must not allocate.
func placementLabel(resp *Response) string {
	switch {
	case resp.Placement != "":
		return resp.Placement
	case resp.GPUs > 0:
		return "fleet"
	default:
		return "classic"
	}
}

// FleetDeviceStats reports one fleet device's served traffic: every fleet
// request it participated in, what it was assigned and scanned, and its
// share of the simulated device time and spill traffic.
type FleetDeviceStats struct {
	Device       int     `json:"device"`
	Requests     int64   `json:"requests"`
	Morsels      int64   `json:"morsels"`
	Pruned       int64   `json:"pruned"`
	Rows         int64   `json:"rows"`
	SpillBytes   int64   `json:"spill_bytes"`
	ResidentCols int64   `json:"resident_cols"`
	SimSeconds   float64 `json:"sim_seconds"`
}

// HybridExecutorStats reports one scheduler executor's served traffic
// across placement-routed requests: the placement-routed requests it
// executed morsels for, what it scanned, its interconnect shipment and
// its share of the simulated time.
type HybridExecutorStats struct {
	// Label names the executor ("cpu", "gpu0", "gpu1", ...); Kind and
	// Device are its structured identity (Device is -1 for host executors).
	Label        string  `json:"label"`
	Kind         string  `json:"kind"`
	Device       int     `json:"device"`
	Requests     int64   `json:"requests"`
	Morsels      int64   `json:"morsels"`
	Pruned       int64   `json:"pruned"`
	Rows         int64   `json:"rows"`
	ShipBytes    int64   `json:"ship_bytes"`
	ResidentCols int64   `json:"resident_cols"`
	SimSeconds   float64 `json:"sim_seconds"`
}

// EngineStats reports one engine's served traffic: how much simulated
// device time it accounted for versus the wall-clock time the host spent
// producing it (caching and concurrency only affect the latter).
type EngineStats struct {
	Engine   queries.Engine `json:"engine"`
	Alias    string         `json:"alias"`
	Requests int64          `json:"requests"`
	// SimMS and WallMS are the mean per-request latencies in milliseconds,
	// derived by Stats from the running sums below.
	SimMS  float64 `json:"sim_ms"`
	WallMS float64 `json:"wall_ms"`

	simSeconds, wallSeconds float64
}

// LatencyStats reports one (engine, placement) cell's latency
// distribution: request count and p50/p95/p99 percentiles (milliseconds,
// linear interpolation within the log buckets) for the execution wall
// clock, the queue wait and the simulated seconds. Gating and the bench
// tables stay on means; percentiles are observability surface only.
type LatencyStats struct {
	Engine     string  `json:"engine"`
	Placement  string  `json:"placement"`
	Requests   int64   `json:"requests"`
	WallP50MS  float64 `json:"wall_p50_ms"`
	WallP95MS  float64 `json:"wall_p95_ms"`
	WallP99MS  float64 `json:"wall_p99_ms"`
	QueueP50MS float64 `json:"queue_p50_ms"`
	QueueP95MS float64 `json:"queue_p95_ms"`
	QueueP99MS float64 `json:"queue_p99_ms"`
	SimP50MS   float64 `json:"sim_p50_ms"`
	SimP95MS   float64 `json:"sim_p95_ms"`
	SimP99MS   float64 `json:"sim_p99_ms"`

	// wall, queue and sim are the cell's fixed-bucket log histograms
	// (trace.Histogram is a value, so copying the row clones them): Stats
	// derives the percentiles above from them and WriteMetrics exposes them.
	wall, queue, sim trace.Histogram
}

// Stats is the service's stats tally and its point-in-time snapshot in
// one type. The service records into a striped tally: each stripe is a
// Stats under its own mutex, and a caller records into the stripe its core
// holds, so two callers never wait on one lock to count a hit. The Stats
// method adds the stripes into one Stats and fills the derived fields
// (rates, means, percentiles and gauges), and both GET /stats and the
// /metrics exposition render that sum.
type Stats struct {
	Version  string `json:"version"`
	Workers  int    `json:"workers"`
	Requests int64  `json:"requests"`
	// NamedRequests and AdhocRequests split successful traffic between
	// catalog queries (QueryID) and the SQL frontend.
	NamedRequests int64 `json:"named_requests"`
	AdhocRequests int64 `json:"adhoc_requests"`
	Errors        int64 `json:"errors"`

	// Overload discipline. Shed counts submissions refused or evicted
	// with ErrOverloaded under Options.Shed; Expired counts jobs dropped
	// at worker pickup because their Deadline elapsed in the queue.
	// Neither executes, so neither is included in Requests — the total
	// offered load is Requests + Shed + Expired. Coalesced counts
	// responses (a subset of Requests) that rode a concurrent identical
	// request's execution instead of running their own; CoalesceRate is
	// their fraction of Requests. Pending is the point-in-time depth of
	// the admission queue.
	Shed         int64   `json:"shed"`
	Expired      int64   `json:"expired"`
	Coalesced    int64   `json:"coalesced"`
	CoalesceRate float64 `json:"coalesce_rate"`
	Pending      int     `json:"pending"`

	// Shared-scan batching (Options.MaxBatch). Batches counts batch
	// executions and BatchedRequests the responses that rode one (a subset
	// of Requests; BatchRate is their fraction). BatchSharedScanBytes is the
	// scan traffic the batches actually streamed — each shared line charged
	// once — and BatchSoloScanBytes what the members' solo scans would have
	// streamed; the gap is the traffic batching deduplicated.
	Batches              int64   `json:"batches"`
	BatchedRequests      int64   `json:"batched_requests"`
	BatchRate            float64 `json:"batch_rate"`
	BatchSharedScanBytes int64   `json:"batch_shared_scan_bytes"`
	BatchSoloScanBytes   int64   `json:"batch_solo_scan_bytes"`

	// PartitionedRequests counts requests that asked for morsel-driven
	// execution; Morsels and PrunedMorsels tally their fact-scan partitions
	// and how many of those zone maps skipped. PruneRate is the fraction
	// skipped — on uniform data it stays 0 (and simulated seconds match the
	// monolithic runs exactly); on clustered data it is the scan work the
	// service never did.
	PartitionedRequests int64   `json:"partitioned_requests"`
	Morsels             int64   `json:"morsels"`
	PrunedMorsels       int64   `json:"pruned_morsels"`
	PruneRate           float64 `json:"prune_rate"`

	// PackedRequests counts requests that scanned the bit-packed fact
	// encoding; TransferBytes tallies the PCIe traffic their coprocessor
	// runs actually shipped and ResidentCols the column transfers the
	// resident set elided.
	PackedRequests int64 `json:"packed_requests"`
	TransferBytes  int64 `json:"transfer_bytes"`
	ResidentCols   int64 `json:"resident_cols"`

	// Fleet routing: request-level totals plus the per-device breakdown.
	// The FleetDevices entries sum exactly to the Fleet* totals (pinned by
	// a regression test) — a device that drifts from its peers shows up
	// here before it shows up as a latency regression.
	FleetRequests     int64              `json:"fleet_requests"`
	FleetMorsels      int64              `json:"fleet_morsels"`
	FleetPruned       int64              `json:"fleet_pruned"`
	FleetRows         int64              `json:"fleet_rows"`
	FleetSpillBytes   int64              `json:"fleet_spill_bytes"`
	FleetResidentCols int64              `json:"fleet_resident_cols"`
	FleetMergeBytes   int64              `json:"fleet_merge_bytes"`
	FleetDevices      []FleetDeviceStats `json:"fleet_devices,omitempty"`

	// Placement routing: how many requests resolved to each placement
	// ("auto" requests count under what the planner chose), the
	// request-level totals, and the per-executor breakdown. The
	// HybridExecutors entries sum exactly to the Hybrid* totals (pinned by
	// a regression test), so a starved or overloaded arm is visible here
	// before it shows up as a latency regression. Executors are ordered by
	// device, then kind: host executors first, then GPU arms.
	PlacementRequests  map[string]int64      `json:"placement_requests,omitempty"`
	HybridRequests     int64                 `json:"hybrid_requests"`
	HybridMorsels      int64                 `json:"hybrid_morsels"`
	HybridPruned       int64                 `json:"hybrid_pruned"`
	HybridRows         int64                 `json:"hybrid_rows"`
	HybridShipBytes    int64                 `json:"hybrid_ship_bytes"`
	HybridResidentCols int64                 `json:"hybrid_resident_cols"`
	HybridMergeBytes   int64                 `json:"hybrid_merge_bytes"`
	HybridExecutors    []HybridExecutorStats `json:"hybrid_executors,omitempty"`

	// Device residency: the capacity of the simulated GPU memory pinning
	// packed columns (Options.DeviceCacheBytes) and the current snapshot's
	// resident set in it (queries.ResidentColumns) — the one-time load a
	// dataset swap implies, reported once the snapshot's packed encoding
	// exists (reading Stats never builds it). Hits and misses count the
	// referenced fact columns of executed packed coprocessor requests: a
	// hit shipped nothing, a miss shipped its cold bytes. All zero when
	// residency is disabled.
	DeviceCacheCapBytes  int64   `json:"device_cache_cap_bytes"`
	DeviceCacheUsedBytes int64   `json:"device_cache_used_bytes"`
	DeviceCacheCols      int     `json:"device_cache_cols"`
	ResidentHits         int64   `json:"resident_hits"`
	ResidentMisses       int64   `json:"resident_misses"`
	ResidencyHitRate     float64 `json:"residency_hit_rate"`

	PlanHits      int64   `json:"plan_hits"`
	PlanMisses    int64   `json:"plan_misses"`
	PlanHitRate   float64 `json:"plan_hit_rate"`
	CachedPlans   int     `json:"cached_plans"`
	ResultHits    int64   `json:"result_hits"`
	ResultMisses  int64   `json:"result_misses"`
	ResultHitRate float64 `json:"result_hit_rate"`
	CachedResults int     `json:"cached_results"`

	// Engines are reported in the fixed evaluation order of
	// queries.Engines so output is stable.
	Engines []EngineStats `json:"engines"`

	// Latency is the per-(engine, placement) latency percentile grid,
	// sorted by engine then placement for stable output.
	Latency []LatencyStats `json:"latency,omitempty"`
}

// record adds one served response, and the residency lookups of an
// executed one, to the tally; the caller holds the stripe's lock. It
// records nothing and reports false when a row the response counts under
// is missing (tally.record inserts it, see addRows): a response whose rows
// exist allocates nothing.
func (st *Stats) record(resp *Response, residentHits, residentMisses int64) bool {
	e := st.engine(resp.Request.Engine, false)
	l := st.latency(EngineAlias(resp.Request.Engine), placementLabel(resp), false)
	if e == nil || l == nil || !st.routeRows(resp, false) {
		return false
	}
	st.Requests++
	if resp.Request.SQL != "" {
		st.AdhocRequests++
	} else {
		st.NamedRequests++
	}
	// Fleet and placement requests tally their morsels and pruning under
	// the fleet and placement counters below, not here.
	if resp.Request.Partitions > 0 && resp.GPUs == 0 && resp.Placement == "" {
		st.PartitionedRequests++
		st.Morsels += int64(resp.Morsels)
		st.PrunedMorsels += int64(resp.Pruned)
	}
	if resp.Request.Packed {
		st.PackedRequests++
		// Fleet spill traffic and elisions are tallied under the fleet
		// counters below; adding them here too would double-report the
		// bytes and mislabel interconnect traffic as coprocessor PCIe.
		if resp.GPUs == 0 {
			st.TransferBytes += resp.TransferBytes
			st.ResidentCols += int64(resp.ResidentCols)
		}
	}
	if resp.Placement != "" {
		// Placement-routed traffic: the GPUs echo names the GPU arm's
		// fleet size, not classic fleet dispatch, so it is tallied here
		// and never under the fleet counters below.
		st.PlacementRequests[resp.Placement]++
		st.HybridRequests++
		st.HybridMergeBytes += resp.MergeBytes
		for i := range resp.Executors {
			er := &resp.Executors[i]
			h := st.hybridExecutor(er, false)
			h.Requests++
			h.Morsels += int64(er.Morsels)
			h.Pruned += int64(er.Pruned)
			h.Rows += er.Rows
			h.ShipBytes += er.ShipBytes
			h.ResidentCols += int64(er.ResidentCols)
			h.SimSeconds += er.Seconds
			st.HybridMorsels += int64(er.Morsels)
			st.HybridPruned += int64(er.Pruned)
			st.HybridRows += er.Rows
			st.HybridShipBytes += er.ShipBytes
			st.HybridResidentCols += int64(er.ResidentCols)
		}
	} else if resp.GPUs > 0 {
		st.FleetRequests++
		st.FleetMergeBytes += resp.MergeBytes
		for i := range resp.Devices {
			fd := &resp.Devices[i]
			d := &st.FleetDevices[fd.Device]
			d.Requests++
			d.Morsels += int64(fd.Morsels)
			d.Pruned += int64(fd.Pruned)
			d.Rows += fd.Rows
			d.SpillBytes += fd.SpillBytes
			d.ResidentCols += int64(fd.ResidentCols)
			d.SimSeconds += fd.Seconds
			st.FleetMorsels += int64(fd.Morsels)
			st.FleetPruned += int64(fd.Pruned)
			st.FleetRows += fd.Rows
			st.FleetSpillBytes += fd.SpillBytes
			st.FleetResidentCols += int64(fd.ResidentCols)
		}
	}
	if resp.PlanCached {
		st.PlanHits++
	} else {
		st.PlanMisses++
	}
	if resp.Coalesced {
		st.Coalesced++
	}
	if resp.Batched {
		st.BatchedRequests++
	}
	if resp.ResultCached {
		st.ResultHits++
	} else {
		st.ResultMisses++
	}
	st.ResidentHits += residentHits
	st.ResidentMisses += residentMisses
	e.Requests++
	e.simSeconds += resp.SimSeconds
	e.wallSeconds += resp.Wall.Seconds()

	l.Requests++
	l.wall.Observe(resp.Wall.Seconds())
	l.queue.Observe(resp.QueueWait.Seconds())
	l.sim.Observe(resp.SimSeconds)
	return true
}

// addRows inserts every row resp counts under that st lacks, each with
// zero counters.
func (st *Stats) addRows(resp *Response) {
	st.engine(resp.Request.Engine, true)
	st.latency(EngineAlias(resp.Request.Engine), placementLabel(resp), true)
	st.routeRows(resp, true)
}

// routeRows reports whether st holds the rows a placement-routed or fleet
// response counts under, inserting the missing ones when add is set.
func (st *Stats) routeRows(resp *Response, add bool) bool {
	switch {
	case resp.Placement != "":
		if _, ok := st.PlacementRequests[resp.Placement]; !ok {
			if !add {
				return false
			}
			if st.PlacementRequests == nil {
				st.PlacementRequests = map[string]int64{}
			}
			st.PlacementRequests[resp.Placement] = 0
		}
		for i := range resp.Executors {
			if st.hybridExecutor(&resp.Executors[i], add) == nil {
				return false
			}
		}
	case resp.GPUs > 0:
		if !add {
			return len(st.FleetDevices) >= len(resp.Devices)
		}
		for len(st.FleetDevices) < len(resp.Devices) {
			st.FleetDevices = append(st.FleetDevices, FleetDeviceStats{Device: len(st.FleetDevices)})
		}
	}
	return true
}

// hybridExecutor returns er's row, or nil when there is none; add inserts
// it by device, then kind. Only then is its label ("cpu", "gpu0", ...)
// built.
func (st *Stats) hybridExecutor(er *queries.ExecutorResult, add bool) *HybridExecutorStats {
	kind := string(er.Kind)
	for i := range st.HybridExecutors {
		if h := &st.HybridExecutors[i]; h.Device == er.Device && h.Kind == kind {
			return h
		}
	}
	if !add {
		return nil
	}
	label := kind
	if er.Device >= 0 {
		label += strconv.Itoa(er.Device)
	}
	return insertRow(&st.HybridExecutors, func(h *HybridExecutorStats) bool {
		return cmp.Or(cmp.Compare(h.Device, er.Device), strings.Compare(h.Kind, kind)) > 0
	}, HybridExecutorStats{Label: label, Kind: kind, Device: er.Device})
}

// engine returns e's row, or nil when there is none; add inserts it in
// queries.Engines order.
func (st *Stats) engine(e queries.Engine, add bool) *EngineStats {
	for i := range st.Engines {
		if r := &st.Engines[i]; r.Engine == e {
			return r
		}
	}
	if !add {
		return nil
	}
	rank := slices.Index(queries.Engines(), e)
	return insertRow(&st.Engines, func(r *EngineStats) bool {
		return slices.Index(queries.Engines(), r.Engine) > rank
	}, EngineStats{Engine: e, Alias: EngineAlias(e)})
}

// latency returns the (engine, placement) cell, or nil when there is none;
// add inserts it by engine, then placement.
func (st *Stats) latency(engine, placement string, add bool) *LatencyStats {
	for i := range st.Latency {
		if l := &st.Latency[i]; l.Engine == engine && l.Placement == placement {
			return l
		}
	}
	if !add {
		return nil
	}
	return insertRow(&st.Latency, func(l *LatencyStats) bool {
		return cmp.Or(strings.Compare(l.Engine, engine), strings.Compare(l.Placement, placement)) > 0
	}, LatencyStats{Engine: engine, Placement: placement})
}

// insertRow inserts r into rows, which are kept in output order, before
// the first row that after reports as ordered after it, and returns it.
// Rows are few — engines, (engine, placement) cells, executors — so
// lookups scan them, and Stats sorts nothing.
func insertRow[E any](rows *[]E, after func(*E) bool, r E) *E {
	i := 0
	for i < len(*rows) && !after(&(*rows)[i]) {
		i++
	}
	*rows = slices.Insert(*rows, i, r)
	return &(*rows)[i]
}

// add adds o's tally into st: every counter, running sum and histogram,
// and every row matched by position, since every stripe holds the same
// rows in the same order (tally). A row's key fields are copied, so adding
// the first stripe into a zero Stats builds the rows.
func (st *Stats) add(o *Stats) {
	st.Requests += o.Requests
	st.NamedRequests += o.NamedRequests
	st.AdhocRequests += o.AdhocRequests
	st.Errors += o.Errors
	st.Shed += o.Shed
	st.Expired += o.Expired
	st.Coalesced += o.Coalesced
	st.Batches += o.Batches
	st.BatchedRequests += o.BatchedRequests
	st.BatchSharedScanBytes += o.BatchSharedScanBytes
	st.BatchSoloScanBytes += o.BatchSoloScanBytes
	st.PartitionedRequests += o.PartitionedRequests
	st.Morsels += o.Morsels
	st.PrunedMorsels += o.PrunedMorsels
	st.PackedRequests += o.PackedRequests
	st.TransferBytes += o.TransferBytes
	st.ResidentCols += o.ResidentCols
	st.FleetRequests += o.FleetRequests
	st.FleetMorsels += o.FleetMorsels
	st.FleetPruned += o.FleetPruned
	st.FleetRows += o.FleetRows
	st.FleetSpillBytes += o.FleetSpillBytes
	st.FleetResidentCols += o.FleetResidentCols
	st.FleetMergeBytes += o.FleetMergeBytes
	st.FleetDevices = sumRows(st.FleetDevices, o.FleetDevices, func(d, o *FleetDeviceStats) {
		d.Device = o.Device
		d.Requests += o.Requests
		d.Morsels += o.Morsels
		d.Pruned += o.Pruned
		d.Rows += o.Rows
		d.SpillBytes += o.SpillBytes
		d.ResidentCols += o.ResidentCols
		d.SimSeconds += o.SimSeconds
	})
	for p, n := range o.PlacementRequests {
		if st.PlacementRequests == nil {
			st.PlacementRequests = make(map[string]int64, len(o.PlacementRequests))
		}
		st.PlacementRequests[p] += n
	}
	st.HybridRequests += o.HybridRequests
	st.HybridMorsels += o.HybridMorsels
	st.HybridPruned += o.HybridPruned
	st.HybridRows += o.HybridRows
	st.HybridShipBytes += o.HybridShipBytes
	st.HybridResidentCols += o.HybridResidentCols
	st.HybridMergeBytes += o.HybridMergeBytes
	st.HybridExecutors = sumRows(st.HybridExecutors, o.HybridExecutors, func(h, o *HybridExecutorStats) {
		h.Label, h.Kind, h.Device = o.Label, o.Kind, o.Device
		h.Requests += o.Requests
		h.Morsels += o.Morsels
		h.Pruned += o.Pruned
		h.Rows += o.Rows
		h.ShipBytes += o.ShipBytes
		h.ResidentCols += o.ResidentCols
		h.SimSeconds += o.SimSeconds
	})
	st.ResidentHits += o.ResidentHits
	st.ResidentMisses += o.ResidentMisses
	st.PlanHits += o.PlanHits
	st.PlanMisses += o.PlanMisses
	st.ResultHits += o.ResultHits
	st.ResultMisses += o.ResultMisses
	st.Engines = sumRows(st.Engines, o.Engines, func(e, o *EngineStats) {
		e.Engine, e.Alias = o.Engine, o.Alias
		e.Requests += o.Requests
		e.simSeconds += o.simSeconds
		e.wallSeconds += o.wallSeconds
	})
	st.Latency = sumRows(st.Latency, o.Latency, func(l, o *LatencyStats) {
		l.Engine, l.Placement = o.Engine, o.Placement
		l.Requests += o.Requests
		l.wall.Merge(&o.wall)
		l.queue.Merge(&o.queue)
		l.sim.Merge(&o.sim)
	})
}

// sumRows adds src's rows into dst's by position, first sizing an empty
// dst to src.
func sumRows[E any](dst, src []E, add func(dst, src *E)) []E {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make([]E, len(src))
	}
	for i := range src {
		add(&dst[i], &src[i])
	}
	return dst
}

// statsStripes is the number of stripes the tally records into. Stripes
// are dealt to Ps, so on a host with more cores than stripes some Ps share
// one, which costs only their waits on its lock.
const statsStripes = 16

// statsStripe is one stripe of the tally. The padding keeps the mutex
// and counters of neighbouring stripes off one cache line.
type statsStripe struct {
	mu sync.Mutex
	st Stats
	_  [64]byte
}

// tally is the service's striped stats tally. Every record lands whole in
// one stripe, under that stripe's lock, so every invariant the tally keeps
// (counts and their sums, rows and their totals) is a sum over records and
// holds in the sum of the stripes that Stats returns.
type tally struct {
	stripes [statsStripes]statsStripe
	// free hands a caller a stripe. sync.Pool keeps one per P, so a caller
	// keeps the stripe its core used last. An empty pool (a P's first
	// record, a stripe the GC or the race detector dropped) deals the next
	// stripe round robin.
	free sync.Pool
	next atomic.Uint32
	// rowsMu orders row creation against other row creation and against
	// the merge. Every stripe holds the same rows in the same order: the
	// first response to count under a row inserts it into every stripe,
	// so recording a known row into any stripe allocates nothing, and the
	// merge adds the stripes row by row.
	rowsMu sync.Mutex
}

// with runs fn on one stripe's Stats under that stripe's lock.
func (t *tally) with(fn func(st *Stats)) {
	sp := t.stripe()
	sp.mu.Lock()
	fn(&sp.st)
	sp.mu.Unlock()
	t.free.Put(sp)
}

func (t *tally) stripe() *statsStripe {
	if sp, ok := t.free.Get().(*statsStripe); ok {
		return sp
	}
	return &t.stripes[t.next.Add(1)%statsStripes]
}

// record tallies one served response (Stats.record) into one stripe. The
// response that is first to count under a row inserts that row into every
// stripe, then records, all under rowsMu, so the merge never sees a row
// before its first record.
func (t *tally) record(resp *Response, residentHits, residentMisses int64) {
	sp := t.stripe()
	sp.mu.Lock()
	ok := sp.st.record(resp, residentHits, residentMisses)
	sp.mu.Unlock()
	if !ok {
		t.rowsMu.Lock()
		for i := range t.stripes {
			o := &t.stripes[i]
			o.mu.Lock()
			o.st.addRows(resp)
			o.mu.Unlock()
		}
		sp.mu.Lock()
		sp.st.record(resp, residentHits, residentMisses)
		sp.mu.Unlock()
		t.rowsMu.Unlock()
	}
	t.free.Put(sp)
}

// merge returns the sum of the stripes. Each stripe is read under its own
// lock, so each record is in the sum whole or not at all.
func (t *tally) merge() Stats {
	var out Stats
	t.rowsMu.Lock()
	for i := range t.stripes {
		sp := &t.stripes[i]
		sp.mu.Lock()
		out.add(&sp.st)
		sp.mu.Unlock()
	}
	t.rowsMu.Unlock()
	return out
}

// Stats returns a snapshot of the service counters: the sum of the tally's
// stripes, in which multi-field aggregates (counts and their sums, rows and
// their totals) agree, since each record lands whole in one stripe. The
// dataset version, cache occupancies, queue depth and resident set are read
// on their own, and derive fills the rates, means and percentiles.
func (s *Service) Stats() Stats {
	out := s.tally.merge()
	out.Workers = s.opts.Workers
	out.Version = s.Version()
	s.cacheMu.RLock()
	out.CachedPlans = s.plans.len()
	out.CachedResults = s.results.len()
	s.cacheMu.RUnlock()
	out.Pending = s.queue.len()
	if c := s.opts.DeviceCacheBytes; c > 0 {
		out.DeviceCacheCapBytes = c
		if pf := s.snap.Load().packed.Load(); pf != nil {
			cols, used := queries.ResidentColumns(pf, c)
			out.DeviceCacheCols, out.DeviceCacheUsedBytes = len(cols), used
		}
	}
	out.derive()
	return out
}

// derive fills the fields computed from the tally: rates, per-engine means
// and per-cell percentiles.
func (st *Stats) derive() {
	st.ResidencyHitRate = rate(st.ResidentHits, st.ResidentMisses)
	if st.Requests > 0 {
		st.CoalesceRate = float64(st.Coalesced) / float64(st.Requests)
		st.BatchRate = float64(st.BatchedRequests) / float64(st.Requests)
	}
	st.PruneRate = rate(st.PrunedMorsels, st.Morsels-st.PrunedMorsels)
	st.PlanHitRate = rate(st.PlanHits, st.PlanMisses)
	st.ResultHitRate = rate(st.ResultHits, st.ResultMisses)
	for i := range st.Engines {
		e := &st.Engines[i]
		e.SimMS = e.simSeconds / float64(e.Requests) * 1e3
		e.WallMS = e.wallSeconds / float64(e.Requests) * 1e3
	}
	for i := range st.Latency {
		l := &st.Latency[i]
		l.WallP50MS = l.wall.Quantile(0.50) * 1e3
		l.WallP95MS = l.wall.Quantile(0.95) * 1e3
		l.WallP99MS = l.wall.Quantile(0.99) * 1e3
		l.QueueP50MS = l.queue.Quantile(0.50) * 1e3
		l.QueueP95MS = l.queue.Quantile(0.95) * 1e3
		l.QueueP99MS = l.queue.Quantile(0.99) * 1e3
		l.SimP50MS = l.sim.Quantile(0.50) * 1e3
		l.SimP95MS = l.sim.Quantile(0.95) * 1e3
		l.SimP99MS = l.sim.Quantile(0.99) * 1e3
	}
}

// Table renders the per-engine latency split with the repo's reporting
// harness: requests served, mean simulated device time, and mean host
// wall-clock time per engine.
func (st Stats) Table() *bench.Table {
	tb := &bench.Table{
		Title:   "served engines (dataset " + st.Version + ")",
		Columns: []string{"requests", "sim ms", "wall ms"},
		NoMean:  true,
	}
	for _, e := range st.Engines {
		tb.AddRow(e.Alias, float64(e.Requests), e.SimMS, e.WallMS)
	}
	return tb
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
