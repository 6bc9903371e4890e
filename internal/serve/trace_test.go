package serve

import (
	"context"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"crystal/internal/queries"
	"crystal/internal/trace"
)

// mixedRequests covers every dispatch shape the service routes: classic
// engine dispatch, classic multi-GPU fleet, and the scheduler placements.
func mixedRequests() []Request {
	return []Request{
		{QueryID: "q1.1", Engine: queries.EngineCPU},
		{QueryID: "q2.1", Engine: queries.EngineCoproc, Packed: true},
		{QueryID: "q3.1", Engine: queries.EngineGPU, GPUs: 2, Partitions: 8},
		{QueryID: "q4.1", Placement: PlacementHybrid, GPUs: 2, Interconnect: "nvlink"},
		{QueryID: "q1.2", Placement: PlacementCPU},
		{QueryID: "q2.2", Placement: PlacementGPU, GPUs: 2},
	}
}

// TestTraceThroughService: with Options.Trace on, every response carries a
// recorded trace whose run span satisfies the tracer's invariants and
// whose simulated seconds equal the response's.
func TestTraceThroughService(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2, Trace: true})
	defer s.Close()

	for _, req := range mixedRequests() {
		req.NoCache = true
		resp, err := s.Do(context.Background(), req)
		if err != nil || resp.Err != nil {
			t.Fatalf("%+v: %v / %v", req, err, resp.Err)
		}
		if resp.TraceID == "" || resp.Trace == nil {
			t.Fatalf("%+v: traced service returned no trace", req)
		}
		got := s.TraceRecorder().Get(resp.TraceID)
		if got != resp.Trace {
			t.Errorf("%s: recorder lookup returned a different trace", resp.TraceID)
		}
		root := resp.Trace.Root
		if root.Phase != trace.PhaseRequest || root.Child(trace.PhaseAdmit) == nil || root.Child(trace.PhaseBind) == nil {
			t.Errorf("%s: malformed request span: %+v", resp.TraceID, root)
		}
		run := root.Child(trace.PhaseRun)
		if run == nil {
			t.Fatalf("%s: no run span on an executed request", resp.TraceID)
		}
		if err := trace.Verify(run); err != nil {
			t.Errorf("%s (%+v): %v", resp.TraceID, req, err)
		}
		if resp.Trace.Sim != resp.SimSeconds {
			t.Errorf("%s: trace sim %g != response sim %g", resp.TraceID, resp.Trace.Sim, resp.SimSeconds)
		}
		if resp.QueueWait < 0 {
			t.Errorf("%s: negative queue wait", resp.TraceID)
		}
		if resp.Trace.Query != req.QueryID {
			t.Errorf("trace query %q != request %q", resp.Trace.Query, req.QueryID)
		}
	}
	if n := s.TraceRecorder().Len(); n == 0 {
		t.Error("flight recorder retained nothing")
	}
}

// TestTraceCacheHit: a result-cache hit gets its own trace — a cache-hit
// marker instead of a run span, never a replay of the original's spans.
func TestTraceCacheHit(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, Trace: true})
	defer s.Close()

	req := Request{QueryID: "q1.1", Engine: queries.EngineCPU}
	first, err := s.Do(context.Background(), req)
	if err != nil || first.Err != nil {
		t.Fatal(err, first.Err)
	}
	second, err := s.Do(context.Background(), req)
	if err != nil || second.Err != nil {
		t.Fatal(err, second.Err)
	}
	if !second.ResultCached {
		t.Fatal("second identical request missed the result cache")
	}
	if second.TraceID == "" || second.TraceID == first.TraceID {
		t.Errorf("cache hit trace id %q (first %q): want a fresh trace", second.TraceID, first.TraceID)
	}
	if !second.Trace.Cached {
		t.Error("cache-hit trace not marked cached")
	}
	hit := second.Trace.Root.Child(trace.PhaseCacheHit)
	if hit == nil || !hit.Cached {
		t.Error("cache-hit trace has no cache-hit span")
	}
	if second.Trace.Root.Child(trace.PhaseRun) != nil {
		t.Error("cache-hit trace replays a run span")
	}
}

// TestTraceOffByDefault: without Options.Trace the service records
// nothing and responses carry no trace surface at all.
func TestTraceOffByDefault(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1})
	defer s.Close()
	if s.TraceRecorder() != nil {
		t.Fatal("untraced service built a flight recorder")
	}
	resp, err := s.Do(context.Background(), Request{QueryID: "q1.1", Engine: queries.EngineGPU})
	if err != nil || resp.Err != nil {
		t.Fatal(err, resp.Err)
	}
	if resp.TraceID != "" || resp.Trace != nil {
		t.Error("untraced response carries a trace")
	}
}

// TestStatsAndMetricsUnderLoad hammers Stats and the metrics exposition
// from reader goroutines while mixed-placement traffic executes (run
// under -race in CI): the single-lock snapshot must never tear, and the
// final tallies must be exact.
func TestStatsAndMetricsUnderLoad(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 4, Trace: true})
	defer s.Close()

	const rounds = 10
	reqs := mixedRequests()
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := s.Stats()
				var latReqs int64
				for _, l := range st.Latency {
					latReqs += l.Requests
				}
				if latReqs > st.Requests {
					t.Errorf("torn snapshot: %d latency observations for %d requests", latReqs, st.Requests)
					return
				}
				if err := s.WriteMetrics(io.Discard); err != nil {
					t.Errorf("WriteMetrics: %v", err)
					return
				}
			}
		}()
	}

	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; i < rounds; i++ {
				req := reqs[(i+c)%len(reqs)]
				req.NoCache = true
				if resp, err := s.Do(context.Background(), req); err != nil || resp.Err != nil {
					t.Errorf("%+v: %v / %v", req, err, resp.Err)
					return
				}
			}
		}(c)
	}
	clients.Wait()
	close(done)
	readers.Wait()

	st := s.Stats()
	if want := int64(4 * rounds); st.Requests != want {
		t.Errorf("requests = %d, want %d", st.Requests, want)
	}
	var latReqs int64
	for _, l := range st.Latency {
		latReqs += l.Requests
		if l.WallP50MS > l.WallP95MS || l.WallP95MS > l.WallP99MS {
			t.Errorf("%s/%s: percentiles not monotone: %g %g %g",
				l.Engine, l.Placement, l.WallP50MS, l.WallP95MS, l.WallP99MS)
		}
	}
	if latReqs != st.Requests {
		t.Errorf("latency grid holds %d observations for %d requests", latReqs, st.Requests)
	}
}

// mixedTrafficWorkers is the worker count servedMixedTraffic's service
// runs with.
const mixedTrafficWorkers = 1

// servedMixedTraffic returns a service, with the device residency cache
// and batching on, after it has served every response shape the stats
// tally records: a batch of two compatible requests queued behind a parked
// worker, the mixedRequests dispatch shapes (the first one a result-cache
// hit on a batch member), a second packed coprocessor request (residency
// hits) and a failing request. It also returns the successful responses.
// traced turns Options.Trace on.
func servedMixedTraffic(t *testing.T, traced bool) (*Service, []Response) {
	t.Helper()
	s := New(testData(), "v1", Options{
		Workers: mixedTrafficWorkers, QueueDepth: 16, MaxBatch: 8, DeviceCacheBytes: 1 << 30, Trace: traced,
	})
	t.Cleanup(s.Close)
	ctx := context.Background()
	started, release := blockExecutions(s)
	blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	chans := []<-chan Response{blocker}
	for _, id := range []string{"q1.1", "q1.2"} {
		ch, err := s.Submit(ctx, Request{QueryID: id, Engine: queries.EngineCPU})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	close(release)
	var resps []Response
	for _, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		resps = append(resps, resp)
	}
	// started buffers more keys than the executions below announce.
	for _, req := range append(mixedRequests(), Request{QueryID: "q2.1", Engine: queries.EngineCoproc, Packed: true}) {
		resp, err := s.Do(ctx, req)
		if err != nil || resp.Err != nil {
			t.Fatalf("%+v: %v / %v", req, err, resp.Err)
		}
		resps = append(resps, resp)
	}
	if _, err := s.Do(ctx, Request{QueryID: "q9.9", Engine: queries.EngineCPU}); err == nil {
		t.Fatal("unknown query id: want error")
	}
	return s, resps
}

// metricSamples indexes an exposition's sample lines by name and label
// set ("name{labels}") to their values.
func metricSamples(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsExposition: the /metrics payload is valid Prometheus text
// exposition carrying the per-(engine, placement) latency histograms, with
// tracing off and on. Each per-cell request count equals the count of
// served responses in that cell, worked out from the responses themselves,
// and after traffic of every shape each counter and gauge sample equals
// its Stats field — both surfaces render one snapshot.
func TestMetricsExposition(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(map[bool]string{false: "untraced", true: "traced"}[traced], func(t *testing.T) {
			testMetricsExposition(t, traced)
		})
	}
}

func testMetricsExposition(t *testing.T, traced bool) {
	s, resps := servedMixedTraffic(t, traced)
	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := trace.Validate(out); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		// Four CPU requests are served classic (the batch blocker, two
		// batch members, the result-cache hit) and one GPU query on the
		// 2-GPU fleet.
		`ssb_requests_total{engine="cpu",placement="classic"} 4`,
		`ssb_requests_total{engine="gpu",placement="fleet"} 1`,
		`ssb_request_wall_seconds_bucket{engine="cpu",placement="classic",le="+Inf"} 4`,
		`ssb_request_wall_seconds_count{engine="gpu",placement="fleet"} 1`,
		"# TYPE ssb_queue_wait_seconds histogram",
		"# TYPE ssb_sim_seconds histogram",
		`placement="hybrid"`,
		"# TYPE ssb_transfer_bytes_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	samples := metricSamples(t, out)
	if got := samples["ssb_workers"]; got != mixedTrafficWorkers {
		t.Errorf("ssb_workers = %g, want Options.Workers = %d", got, mixedTrafficWorkers)
	}
	// The per-cell request counts, from the served responses alone.
	cells := map[string]int{}
	for i := range resps {
		cells[`engine="`+EngineAlias(resps[i].Request.Engine)+`",placement="`+placementLabel(&resps[i])+`"`]++
	}
	for _, placement := range []string{"classic", "fleet", PlacementHybrid, PlacementCPU, PlacementGPU} {
		var n int
		for cell, c := range cells {
			if strings.HasSuffix(cell, `,placement="`+placement+`"`) {
				n += c
			}
		}
		if n == 0 {
			t.Errorf("mixed traffic served no placement=%q response", placement)
		}
	}
	for cell, n := range cells {
		for _, name := range []string{
			"ssb_requests_total{" + cell + "}",
			"ssb_request_wall_seconds_count{" + cell + "}",
			"ssb_request_wall_seconds_bucket{" + cell + `,le="+Inf"}`,
		} {
			if got, ok := samples[name]; !ok || got != float64(n) {
				t.Errorf("%s = %g (present %v), %d responses served", name, got, ok, n)
			}
		}
	}
	if n := strings.Count(out, "\nssb_requests_total{"); n != len(cells) {
		t.Errorf("%d ssb_requests_total samples for %d served cells", n, len(cells))
	}

	st := s.Stats()
	for name, want := range map[string]float64{
		"ssb_errors_total":                                float64(st.Errors),
		"ssb_coalesced_total":                             float64(st.Coalesced),
		"ssb_batches_total":                               float64(st.Batches),
		"ssb_batched_requests_total":                      float64(st.BatchedRequests),
		`ssb_batch_scan_bytes_total{accounting="shared"}`: float64(st.BatchSharedScanBytes),
		`ssb_batch_scan_bytes_total{accounting="solo"}`:   float64(st.BatchSoloScanBytes),
		"ssb_plan_cache_hits_total":                       float64(st.PlanHits),
		"ssb_plan_cache_misses_total":                     float64(st.PlanMisses),
		"ssb_result_cache_hits_total":                     float64(st.ResultHits),
		"ssb_result_cache_misses_total":                   float64(st.ResultMisses),
		`ssb_transfer_bytes_total{path="coproc"}`:         float64(st.TransferBytes),
		`ssb_transfer_bytes_total{path="fleet"}`:          float64(st.FleetSpillBytes),
		`ssb_transfer_bytes_total{path="hybrid"}`:         float64(st.HybridShipBytes),
		`ssb_merge_bytes_total{path="fleet"}`:             float64(st.FleetMergeBytes),
		`ssb_merge_bytes_total{path="hybrid"}`:            float64(st.HybridMergeBytes),
		"ssb_workers":                                     float64(st.Workers),
		"ssb_queue_pending":                               float64(st.Pending),
		"ssb_cached_plans":                                float64(st.CachedPlans),
		"ssb_cached_results":                              float64(st.CachedResults),
		"ssb_device_cache_capacity_bytes":                 float64(st.DeviceCacheCapBytes),
		"ssb_device_cache_used_bytes":                     float64(st.DeviceCacheUsedBytes),
		"ssb_device_cache_columns":                        float64(st.DeviceCacheCols),
		"ssb_residency_hits_total":                        float64(st.ResidentHits),
		"ssb_residency_misses_total":                      float64(st.ResidentMisses),
		"ssb_residency_evictions_total":                   float64(st.ResidentEvictions),
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %g (present %v), Stats says %g", name, got, ok, want)
		}
	}
	// The traffic must reach every path, or the equalities above are 0 == 0.
	for name, v := range map[string]int64{
		"errors": st.Errors, "batches": st.Batches, "result hits": st.ResultHits,
		"coproc transfer bytes": st.TransferBytes, "hybrid ship bytes": st.HybridShipBytes,
		"fleet merge bytes": st.FleetMergeBytes, "hybrid merge bytes": st.HybridMergeBytes,
		"residency hits": st.ResidentHits,
	} {
		if v == 0 {
			t.Errorf("mixed traffic left %s at 0", name)
		}
	}

	var served float64
	for _, l := range st.Latency {
		labels := `{engine="` + l.Engine + `",placement="` + l.Placement + `"}`
		if got := samples["ssb_request_wall_seconds_count"+labels]; got != float64(l.Requests) {
			t.Errorf("ssb_request_wall_seconds_count%s = %g, Stats cell says %d", labels, got, l.Requests)
		}
		served += samples["ssb_requests_total"+labels]
	}
	if want := float64(st.Requests - st.Errors); served != want {
		t.Errorf("ssb_requests_total samples sum to %g, want Requests - Errors = %g", served, want)
	}
	if n := strings.Count(out, "\nssb_requests_total{"); n != len(st.Latency) {
		t.Errorf("%d ssb_requests_total samples for %d latency cells", n, len(st.Latency))
	}
}
