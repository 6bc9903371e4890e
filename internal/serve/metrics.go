package serve

import (
	"io"

	"crystal/internal/trace"
)

// WriteMetrics renders the service's counters, latency histograms and
// device-cache gauges as Prometheus text exposition (the GET /metrics
// surface). Metric names follow one scheme: an ssb_ prefix, _total for
// counters, _bytes/_seconds/_columns units, and the latency histograms
// labeled by (engine, placement) — the same grid Stats.Latency reports
// percentiles for. Every number comes from one s.Stats() snapshot, the
// same one GET /stats returns, so the two surfaces cannot disagree.
func (s *Service) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	e := trace.NewExposition(w)

	reqSamples := make([]trace.Sample, 0, len(st.Latency))
	wallHists := make([]trace.HistSample, 0, len(st.Latency))
	queueHists := make([]trace.HistSample, 0, len(st.Latency))
	simHists := make([]trace.HistSample, 0, len(st.Latency))
	for i := range st.Latency {
		l := &st.Latency[i]
		labels := []string{"engine", l.Engine, "placement", l.Placement}
		reqSamples = append(reqSamples, trace.Sample{Labels: labels, Value: float64(l.Requests)})
		wallHists = append(wallHists, trace.HistSample{Labels: labels, Hist: &l.wall})
		queueHists = append(queueHists, trace.HistSample{Labels: labels, Hist: &l.queue})
		simHists = append(simHists, trace.HistSample{Labels: labels, Hist: &l.sim})
	}
	e.Counter("ssb_requests_total", "Requests served, by engine and placement.", reqSamples)
	e.Counter("ssb_errors_total", "Requests rejected or failed.",
		[]trace.Sample{{Value: float64(st.Errors)}})
	e.Counter("ssb_shed_total",
		"Submissions refused or evicted with ErrOverloaded under load shedding.",
		[]trace.Sample{{Value: float64(st.Shed)}})
	e.Counter("ssb_deadline_expired_total",
		"Jobs dropped at worker pickup because their deadline elapsed in the queue.",
		[]trace.Sample{{Value: float64(st.Expired)}})
	e.Counter("ssb_coalesced_total",
		"Responses that shared a concurrent identical request's execution (single-flight).",
		[]trace.Sample{{Value: float64(st.Coalesced)}})
	e.Counter("ssb_batches_total",
		"Shared-scan batch executions formed at worker pickup (Options.MaxBatch).",
		[]trace.Sample{{Value: float64(st.Batches)}})
	e.Counter("ssb_batched_requests_total",
		"Responses that rode a shared-scan batch instead of a solo execution.",
		[]trace.Sample{{Value: float64(st.BatchedRequests)}})
	e.Counter("ssb_batch_scan_bytes_total",
		"Batch scan traffic, by accounting: shared (each line streamed once) vs solo (what the members' solo scans would have streamed).",
		[]trace.Sample{
			{Labels: []string{"accounting", "shared"}, Value: float64(st.BatchSharedScanBytes)},
			{Labels: []string{"accounting", "solo"}, Value: float64(st.BatchSoloScanBytes)},
		})
	e.Histogram("ssb_request_wall_seconds",
		"Execution wall clock per request (queue wait excluded), by engine and placement.", wallHists)
	e.Histogram("ssb_queue_wait_seconds",
		"Time requests sat in the admission queue before a worker picked them up.", queueHists)
	e.Histogram("ssb_sim_seconds",
		"Simulated device seconds per request under the bandwidth model.", simHists)

	e.Counter("ssb_plan_cache_hits_total", "Compiled-plan cache hits.",
		[]trace.Sample{{Value: float64(st.PlanHits)}})
	e.Counter("ssb_plan_cache_misses_total", "Compiled-plan cache misses.",
		[]trace.Sample{{Value: float64(st.PlanMisses)}})
	e.Counter("ssb_result_cache_hits_total", "Result cache hits.",
		[]trace.Sample{{Value: float64(st.ResultHits)}})
	e.Counter("ssb_result_cache_misses_total", "Result cache misses.",
		[]trace.Sample{{Value: float64(st.ResultMisses)}})

	e.Counter("ssb_transfer_bytes_total",
		"Interconnect traffic shipped, by path: coprocessor PCIe, fleet spill, placement-routed shipment.",
		[]trace.Sample{
			{Labels: []string{"path", "coproc"}, Value: float64(st.TransferBytes)},
			{Labels: []string{"path", "fleet"}, Value: float64(st.FleetSpillBytes)},
			{Labels: []string{"path", "hybrid"}, Value: float64(st.HybridShipBytes)},
		})
	e.Counter("ssb_merge_bytes_total",
		"Partial-aggregate merge traffic that crossed the interconnect, by path.",
		[]trace.Sample{
			{Labels: []string{"path", "fleet"}, Value: float64(st.FleetMergeBytes)},
			{Labels: []string{"path", "hybrid"}, Value: float64(st.HybridMergeBytes)},
		})

	e.Gauge("ssb_workers", "Execution pool size.", []trace.Sample{{Value: float64(st.Workers)}})
	e.Gauge("ssb_queue_pending", "Requests waiting in the admission queue.",
		[]trace.Sample{{Value: float64(st.Pending)}})
	e.Gauge("ssb_cached_plans", "Compiled plans resident in the plan cache.",
		[]trace.Sample{{Value: float64(st.CachedPlans)}})
	e.Gauge("ssb_cached_results", "Responses resident in the result cache.",
		[]trace.Sample{{Value: float64(st.CachedResults)}})

	// The capacity is Options.DeviceCacheBytes: zero exactly when the
	// residency cache is disabled.
	if st.DeviceCacheCapBytes > 0 {
		e.Gauge("ssb_device_cache_capacity_bytes",
			"Simulated device memory dedicated to pinning packed columns.",
			[]trace.Sample{{Value: float64(st.DeviceCacheCapBytes)}})
		e.Gauge("ssb_device_cache_used_bytes", "Bytes of packed columns currently resident.",
			[]trace.Sample{{Value: float64(st.DeviceCacheUsedBytes)}})
		e.Gauge("ssb_device_cache_columns", "Packed columns currently resident.",
			[]trace.Sample{{Value: float64(st.DeviceCacheCols)}})
		e.Counter("ssb_residency_hits_total",
			"Column transfers elided because the column was device-resident.",
			[]trace.Sample{{Value: float64(st.ResidentHits)}})
		e.Counter("ssb_residency_misses_total", "Residency lookups that had to ship the column.",
			[]trace.Sample{{Value: float64(st.ResidentMisses)}})
		e.Counter("ssb_residency_evictions_total", "Columns evicted from device residency.",
			[]trace.Sample{{Value: float64(st.ResidentEvictions)}})
	}
	return e.Err()
}
