package serve

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

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
// one type. The service records into its own Stats under statsMu; the
// Stats method copies it and fills the derived fields (rates, means,
// percentiles and gauges), and both GET /stats and the /metrics
// exposition render that copy.
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

// record adds one served response to the tally; the caller holds statsMu.
// Rows are kept in output order as they are inserted, so Stats sorts
// nothing, and a response whose rows already exist allocates nothing.
func (st *Stats) record(resp *Response) {
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
		if st.PlacementRequests == nil {
			st.PlacementRequests = map[string]int64{}
		}
		st.PlacementRequests[resp.Placement]++
		st.HybridRequests++
		st.HybridMergeBytes += resp.MergeBytes
		for _, er := range resp.Executors {
			h := st.hybridExecutor(er)
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
		for len(st.FleetDevices) < len(resp.Devices) {
			st.FleetDevices = append(st.FleetDevices, FleetDeviceStats{Device: len(st.FleetDevices)})
		}
		for _, fd := range resp.Devices {
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
	e := st.engine(resp.Request.Engine)
	e.Requests++
	e.simSeconds += resp.SimSeconds
	e.wallSeconds += resp.Wall.Seconds()

	l := st.latency(EngineAlias(resp.Request.Engine), placementLabel(resp))
	l.Requests++
	l.wall.Observe(resp.Wall.Seconds())
	l.queue.Observe(resp.QueueWait.Seconds())
	l.sim.Observe(resp.SimSeconds)
}

// hybridExecutor returns er's row, inserting it by device, then kind, when
// first seen. Only then is its label ("cpu", "gpu0", ...) built.
func (st *Stats) hybridExecutor(er queries.ExecutorResult) *HybridExecutorStats {
	return row(&st.HybridExecutors, func(h *HybridExecutorStats) int {
		return cmp.Or(cmp.Compare(h.Device, er.Device), strings.Compare(h.Kind, string(er.Kind)))
	}, func() HybridExecutorStats {
		label := string(er.Kind)
		if er.Device >= 0 {
			label += strconv.Itoa(er.Device)
		}
		return HybridExecutorStats{Label: label, Kind: string(er.Kind), Device: er.Device}
	})
}

// engine returns e's row, inserting it in queries.Engines order when
// first seen.
func (st *Stats) engine(e queries.Engine) *EngineStats {
	rank := slices.Index(queries.Engines(), e)
	return row(&st.Engines, func(r *EngineStats) int {
		if r.Engine == e {
			return 0
		}
		return cmp.Compare(slices.Index(queries.Engines(), r.Engine), rank)
	}, func() EngineStats { return EngineStats{Engine: e, Alias: EngineAlias(e)} })
}

// latency returns the (engine, placement) cell, inserting it by engine,
// then placement, when first seen.
func (st *Stats) latency(engine, placement string) *LatencyStats {
	return row(&st.Latency, func(l *LatencyStats) int {
		return cmp.Or(strings.Compare(l.Engine, engine), strings.Compare(l.Placement, placement))
	}, func() LatencyStats { return LatencyStats{Engine: engine, Placement: placement} })
}

// row returns the row of rows, kept sorted by order, that order reports
// equal (0), first inserting newRow() where order places it if there is
// none. order compares a row against the sought key. The binary search
// reads rows in place: a LatencyStats row carries three histograms, too
// large to copy per probe.
func row[E any](rows *[]E, order func(*E) int, newRow func() E) *E {
	i := sort.Search(len(*rows), func(i int) bool { return order(&(*rows)[i]) >= 0 })
	if i == len(*rows) || order(&(*rows)[i]) != 0 {
		*rows = slices.Insert(*rows, i, newRow())
	}
	return &(*rows)[i]
}

// Stats returns a snapshot of the service counters. The tally is copied
// under one statsMu acquisition, so multi-field aggregates (counts and
// their sums, rows and their totals) agree in the copy; only the derived
// fields — rates, means, percentiles, and the dataset version, cache
// occupancies and queue depth read on their own — are filled afterwards.
func (s *Service) Stats() Stats {
	s.statsMu.Lock()
	out := s.stats
	out.FleetDevices = slices.Clone(s.stats.FleetDevices)
	out.PlacementRequests = maps.Clone(s.stats.PlacementRequests)
	out.HybridExecutors = slices.Clone(s.stats.HybridExecutors)
	out.Engines = slices.Clone(s.stats.Engines)
	out.Latency = slices.Clone(s.stats.Latency)
	s.statsMu.Unlock()

	out.Workers = s.opts.Workers
	out.Version = s.Version()
	s.cacheMu.Lock()
	out.CachedPlans = s.plans.len()
	out.CachedResults = s.results.len()
	s.cacheMu.Unlock()
	out.Pending = s.queue.len()
	if c := s.opts.DeviceCacheBytes; c > 0 {
		out.DeviceCacheCapBytes = c
		if pf := s.snap.Load().packed.Load(); pf != nil {
			cols, used := queries.ResidentColumns(pf, c)
			out.DeviceCacheCols, out.DeviceCacheUsedBytes = len(cols), used
		}
	}
	out.ResidencyHitRate = rate(out.ResidentHits, out.ResidentMisses)

	if out.Requests > 0 {
		out.CoalesceRate = float64(out.Coalesced) / float64(out.Requests)
		out.BatchRate = float64(out.BatchedRequests) / float64(out.Requests)
	}
	out.PruneRate = rate(out.PrunedMorsels, out.Morsels-out.PrunedMorsels)
	out.PlanHitRate = rate(out.PlanHits, out.PlanMisses)
	out.ResultHitRate = rate(out.ResultHits, out.ResultMisses)
	for i := range out.Engines {
		e := &out.Engines[i]
		e.SimMS = e.simSeconds / float64(e.Requests) * 1e3
		e.WallMS = e.wallSeconds / float64(e.Requests) * 1e3
	}
	for i := range out.Latency {
		l := &out.Latency[i]
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
	return out
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
