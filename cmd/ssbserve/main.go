// Command ssbserve exposes the concurrent SSB query service over HTTP:
//
//	GET  /query?id=q2.1&engine=gpu  execute one catalog query on one engine
//	POST /sql?engine=gpu            execute an ad-hoc SQL statement (body)
//	GET  /sql?q=SELECT...&engine=gpu  same, statement in the query string
//	GET  /engines                   list engines and their aliases
//	GET  /stats                     cache hit rates, named vs ad-hoc traffic
//	GET  /metrics                   Prometheus text exposition (counters,
//	                                per-(engine,placement) latency histograms)
//	GET  /trace?id=t42              one recorded trace (&format=text renders
//	                                the EXPLAIN ANALYZE tree); without id,
//	                                the flight recorder's recent and slowest
//
// Both query endpoints accept &partitions=N to run the fact scan as N
// zone-mapped morsels: rows are identical to the monolithic run, morsels
// the filters cannot match are skipped (see pruned_morsels in the response
// and /stats), and the surviving morsels fan out across the service's
// bounded helper pool.
//
// Both also accept &packed=1 to scan the bit-packed fact encoding (built
// once per dataset): rows are identical, simulated seconds reflect the
// compression asymmetry, and coprocessor requests ship compressed bytes
// over PCIe — or none at all for columns the device residency cache holds
// (see resident_cols in the response and the device cache line in /stats).
// -devicecache sizes that cache; -devicecache -1 disables it.
//
// Both accept &gpus=N (&interconnect=pcie|nvlink) to run on the modeled
// multi-GPU fleet: the fact scan is range-sharded across N V100s, the
// partial aggregates merge over the chosen interconnect, and the response
// carries per-device telemetry (devices, merge_bytes). Fleet requests must
// use engine=gpu; rows are identical to single-device execution at any
// fleet size. -fleetmem constrains each fleet device's memory so shards
// spill (the graceful-degradation experiment).
//
// Both accept &placement=cpu|gpu|hybrid|auto to route through the unified
// scheduler over host-resident data: "cpu" runs the standalone CPU engine,
// "gpu" ships every referenced column to the fleet per query, "hybrid"
// co-executes CPU and GPU arms over a planner-split morsel set, and "auto"
// lets the planner's bytes-moved model choose (the response reports what
// it picked). &gpus=N sizes the GPU arm (default 1); leave engine unset.
// The response carries the resolved placement, the CPU arm's live-row
// share (cpu_frac) and per-executor telemetry (executors).
//
// Both accept &deadline= (a Go duration, e.g. 500ms) and &priority=N for
// admission control. With -shed, a submission past -queuedepth fails fast
// with HTTP 429 and a Retry-After header — unless a strictly
// lower-priority request is pending, which is evicted (429) to admit the
// newcomer. A request whose queue wait exceeds its deadline is dropped at
// worker pickup with HTTP 504, never executed. Without -shed a full queue
// applies backpressure instead. Concurrent identical requests coalesce
// into one execution ("coalesced" in the response and /stats).
//
// The service schedules requests across a bounded worker pool and caches
// SQL bindings, compiled plans and recent results, so repeated queries are
// served from memory while simulated engine times stay identical to a cold
// run. Plan and result caches key on the canonical form of the bound
// query, so any respelling of the same statement — whitespace, comments,
// filter order — hits the same entries.
//
//	ssbserve -sf 1 -workers 8 -addr :8080
//	curl 'localhost:8080/query?id=q2.1&engine=gpu'
//	curl -d "SELECT SUM(revenue), d_year FROM lineorder, date \
//	         WHERE lo_orderdate = d_datekey GROUP BY d_year" \
//	     'localhost:8080/sql?engine=gpu'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crystal/internal/fleet"
	"crystal/internal/queries"
	"crystal/internal/serve"
	"crystal/internal/ssb"
	"crystal/internal/trace"
)

var (
	flagAddr     = flag.String("addr", ":8080", "listen address")
	flagSF       = flag.Int("sf", 1, "scale factor to generate")
	flagRows     = flag.Int("rows", 0, "generate exactly this many fact rows instead of -sf")
	flagWorkers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flagData     = flag.String("data", "", "load a dataset written by datagen instead of generating")
	flagDevCache = flag.Int64("devicecache", 0, "device residency cache capacity in bytes for packed columns (0 = the V100's 32 GB, negative = disabled)")
	flagFleetMem = flag.Int64("fleetmem", 0, "per-fleet-device memory capacity in bytes for &gpus=N requests (0 = the V100's 32 GB; small values make shards spill)")
	flagTrace    = flag.Bool("trace", true, "trace every request into the flight recorder (GET /trace); latency histograms on /metrics work either way")
	flagQueue    = flag.Int("queuedepth", 0, "pending-request queue depth (0 = 4x workers)")
	flagShed     = flag.Bool("shed", false, "shed load past the queue depth (HTTP 429) instead of blocking submissions")
	flagBatch    = flag.Int("maxbatch", 0, "shared-scan batch cap: at pickup a worker drains up to N-1 scan-compatible pending requests into one shared execution (0 or 1 = disabled)")
)

// retryAfterSeconds is the Retry-After hint on 429 responses: one second
// comfortably outlives a full queue drain at any realistic depth.
const retryAfterSeconds = "1"

func main() {
	flag.Parse()
	if *flagFleetMem < 0 {
		log.Fatal("-fleetmem must be >= 0 (0 = the V100's 32 GB; unlike -devicecache, negative does not mean disabled)")
	}

	var ds *ssb.Dataset
	var version string
	var err error
	switch {
	case *flagData != "":
		ds, err = ssb.Load(*flagData)
		if err != nil {
			log.Fatal(err)
		}
		version = *flagData
	case *flagRows > 0:
		ds = ssb.GenerateRows(*flagRows)
		version = fmt.Sprintf("rows%d", *flagRows)
	default:
		ds = ssb.Generate(*flagSF)
		version = fmt.Sprintf("sf%d", *flagSF)
	}
	log.Printf("dataset %s: %d fact rows, %.2f GB", version, ds.Lineorder.Rows(), float64(ds.Bytes())/1e9)

	svc := serve.New(ds, version, serve.Options{
		Workers:                *flagWorkers,
		QueueDepth:             *flagQueue,
		Shed:                   *flagShed,
		DeviceCacheBytes:       *flagDevCache,
		FleetDeviceMemoryBytes: *flagFleetMem,
		Trace:                  *flagTrace,
		MaxBatch:               *flagBatch,
	})
	log.Printf("serving on %s with %d workers", *flagAddr, svc.Workers())

	srv := &http.Server{
		Addr:              *flagAddr,
		Handler:           newMux(svc),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	err = srv.ListenAndServe()
	// Shutdown (or a listener error) stops accepting; drain the pool before
	// exiting so in-flight queries finish.
	svc.Close()
	if !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// newMux routes the server's endpoints; split from main so the metrics
// smoke test can drive the exact handler set the binary serves.
func newMux(svc *serve.Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", handleQuery(svc))
	mux.HandleFunc("/sql", handleSQL(svc))
	mux.HandleFunc("/engines", handleEngines)
	mux.HandleFunc("/stats", handleStats(svc))
	mux.HandleFunc("/metrics", handleMetrics(svc))
	mux.HandleFunc("/trace", handleTrace(svc))
	return mux
}

// queryResponse is the JSON shape of one /query or /sql result.
type queryResponse struct {
	Query        string  `json:"query"`
	Engine       string  `json:"engine"`
	Version      string  `json:"version"`
	Adhoc        bool    `json:"adhoc"`
	Rows         [][]any `json:"rows"`
	SimMS        float64 `json:"sim_ms"`
	WallMS       float64 `json:"wall_ms"`
	PlanCached   bool    `json:"plan_cached"`
	ResultCached bool    `json:"result_cached"`
	// Coalesced marks a response that shared a concurrent identical
	// request's execution (single-flight) rather than running itself.
	Coalesced bool `json:"coalesced,omitempty"`
	// Batched marks a response that rode a shared-scan batch of
	// BatchSize scan-compatible requests; BatchShareMS is its apportioned
	// share of the batch's simulated time (sim_ms stays solo-identical).
	Batched      bool    `json:"batched,omitempty"`
	BatchSize    int     `json:"batch_size,omitempty"`
	BatchShareMS float64 `json:"batch_share_ms,omitempty"`
	// Partitions echoes the requested morsel count; Morsels and
	// PrunedMorsels report how many the scan was split into and how many
	// zone maps skipped.
	Partitions    int `json:"partitions,omitempty"`
	Morsels       int `json:"morsels"`
	PrunedMorsels int `json:"pruned_morsels"`
	// Packed reports whether the bit-packed fact encoding was scanned;
	// TransferBytes is the PCIe traffic a coprocessor run shipped (or, for
	// fleet runs, the spilled-shard interconnect traffic) and ResidentCols
	// the column transfers residency caches elided.
	Packed        bool  `json:"packed,omitempty"`
	TransferBytes int64 `json:"transfer_bytes,omitempty"`
	ResidentCols  int   `json:"resident_cols,omitempty"`
	// GPUs/Interconnect echo the fleet shape of a &gpus=N request; Devices
	// carries its per-device telemetry and MergeBytes the partial-aggregate
	// traffic that crossed the interconnect.
	GPUs         int                   `json:"gpus,omitempty"`
	Interconnect string                `json:"interconnect,omitempty"`
	Devices      []queries.FleetDevice `json:"devices,omitempty"`
	MergeBytes   int64                 `json:"merge_bytes,omitempty"`
	// Placement is the resolved placement of a &placement= request ("auto"
	// reports what the planner chose), CPUFrac the live-row share its CPU
	// arm scanned, and Executors the per-executor telemetry.
	Placement string                   `json:"placement,omitempty"`
	CPUFrac   float64                  `json:"cpu_frac,omitempty"`
	Executors []queries.ExecutorResult `json:"executors,omitempty"`
	// TraceID is the flight-recorder handle of this request's trace when
	// the server traces (-trace): GET /trace?id=<TraceID> replays it.
	TraceID string `json:"trace_id,omitempty"`
}

func handleQuery(svc *serve.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			httpError(w, http.StatusBadRequest, errors.New("missing ?id= (try q2.1)"))
			return
		}
		serveRequest(svc, w, r, serve.Request{
			QueryID: id,
			Engine:  queries.Engine(r.URL.Query().Get("engine")),
		})
	}
}

// handleSQL executes an ad-hoc statement: POST with the statement as the
// request body (or form field "q"), or GET with ?q=.
func handleSQL(svc *serve.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		stmt := r.URL.Query().Get("q")
		if stmt == "" && r.Method == http.MethodPost {
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			stmt = string(body)
			// Accept form posts (curl --data-urlencode q=...) as well as a
			// raw statement body.
			if vals, err := url.ParseQuery(stmt); err == nil && vals.Get("q") != "" {
				stmt = vals.Get("q")
			}
		}
		if strings.TrimSpace(stmt) == "" {
			httpError(w, http.StatusBadRequest, errors.New("missing SQL statement: POST it as the body or pass ?q="))
			return
		}
		serveRequest(svc, w, r, serve.Request{
			SQL:    stmt,
			Engine: queries.Engine(r.URL.Query().Get("engine")),
		})
	}
}

// serveRequest runs one request through the service and writes the shared
// JSON response shape.
func serveRequest(svc *serve.Service, w http.ResponseWriter, r *http.Request, req serve.Request) {
	if v := r.URL.Query().Get("nocache"); v != "" {
		noCache, err := strconv.ParseBool(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad nocache value %q: want a boolean", v))
			return
		}
		req.NoCache = noCache
	}
	if v := r.URL.Query().Get("partitions"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad partitions value %q: want a non-negative integer", v))
			return
		}
		req.Partitions = n
	}
	if v := r.URL.Query().Get("packed"); v != "" {
		packed, err := strconv.ParseBool(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad packed value %q: want a boolean", v))
			return
		}
		req.Packed = packed
	}
	if v := r.URL.Query().Get("gpus"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad gpus value %q: want a non-negative integer", v))
			return
		}
		req.GPUs = n
	}
	if v := r.URL.Query().Get("placement"); v != "" {
		p, err := serve.ParsePlacement(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		req.Placement = p
	}
	if v := r.URL.Query().Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad deadline value %q: want a positive duration like 500ms", v))
			return
		}
		req.Deadline = d
	}
	if v := r.URL.Query().Get("priority"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad priority value %q: want an integer (higher preempts lower when shedding)", v))
			return
		}
		req.Priority = p
	}
	if v := r.URL.Query().Get("interconnect"); v != "" {
		// Validate eagerly, like every other parameter — and refuse the
		// combination that would otherwise silently run on one device.
		if _, err := fleet.ParseInterconnect(v); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if req.GPUs == 0 && req.Placement == "" {
			httpError(w, http.StatusBadRequest, errors.New("interconnect requires a fleet or a placement: pass gpus=N or placement= as well"))
			return
		}
		req.Interconnect = v
	}
	resp, err := svc.Do(r.Context(), req)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, serve.ErrOverloaded):
			// Shed by admission control: the client should back off and
			// retry; Retry-After carries the hint.
			w.Header().Set("Retry-After", retryAfterSeconds)
			status = http.StatusTooManyRequests
		case errors.Is(err, serve.ErrExpired):
			// Admitted but its deadline lapsed in the queue; never executed.
			status = http.StatusGatewayTimeout
		case errors.Is(err, r.Context().Err()):
			status = http.StatusRequestTimeout
		case resp.Err != nil:
			status = http.StatusBadRequest
		}
		httpError(w, status, err)
		return
	}
	out := queryResponse{
		Query:         resp.Query.ID,
		Engine:        string(resp.Request.Engine),
		Version:       resp.Version,
		Adhoc:         resp.Request.SQL != "",
		Rows:          decodeRows(resp.Query, resp.Result),
		SimMS:         resp.SimSeconds * 1e3,
		WallMS:        float64(resp.Wall) / float64(time.Millisecond),
		PlanCached:    resp.PlanCached,
		ResultCached:  resp.ResultCached,
		Coalesced:     resp.Coalesced,
		Batched:       resp.Batched,
		BatchSize:     resp.BatchSize,
		BatchShareMS:  resp.BatchShareSeconds * 1e3,
		Partitions:    resp.Request.Partitions,
		Morsels:       resp.Morsels,
		PrunedMorsels: resp.Pruned,
		Packed:        resp.Request.Packed,
		TransferBytes: resp.TransferBytes,
		ResidentCols:  resp.ResidentCols,
		GPUs:          resp.GPUs,
		Interconnect:  resp.Interconnect,
		Devices:       resp.Devices,
		MergeBytes:    resp.MergeBytes,
		Placement:     resp.Placement,
		CPUFrac:       resp.CPUFrac,
		Executors:     resp.Executors,
		TraceID:       resp.TraceID,
	}
	writeJSON(w, out)
}

// decodeRows unpacks the result's packed group keys into per-payload
// columns followed by every aggregate value of the statement — in statement
// order for ORDER BY results (LIMIT already applied), group-key order
// otherwise.
func decodeRows(q queries.Query, res *queries.Result) [][]any {
	n := len(q.GroupPayloads())
	rows := q.DecodeRows(res)
	out := make([][]any, 0, len(rows))
	for _, r := range rows {
		row := make([]any, 0, n+len(r.Vals))
		for _, l := range r.Labels {
			row = append(row, l)
		}
		for _, v := range r.Vals {
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out
}

type engineInfo struct {
	Alias string `json:"alias"`
	Name  string `json:"name"`
}

func handleEngines(w http.ResponseWriter, _ *http.Request) {
	var out []engineInfo
	for _, e := range queries.Engines() {
		out = append(out, engineInfo{Alias: serve.EngineAlias(e), Name: string(e)})
	}
	writeJSON(w, out)
}

func handleStats(svc *serve.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := svc.Stats()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "dataset %s, %d workers, %d requests (%d named, %d ad-hoc, %d errors)\n",
				st.Version, st.Workers, st.Requests, st.NamedRequests, st.AdhocRequests, st.Errors)
			fmt.Fprintf(w, "plan cache:   %.0f%% hit rate, %d entries\n",
				st.PlanHitRate*100, st.CachedPlans)
			fmt.Fprintf(w, "result cache: %.0f%% hit rate, %d entries\n",
				st.ResultHitRate*100, st.CachedResults)
			fmt.Fprintf(w, "partitioned:  %d requests, %d/%d morsels pruned (%.0f%%)\n",
				st.PartitionedRequests, st.PrunedMorsels, st.Morsels, st.PruneRate*100)
			fmt.Fprintf(w, "packed:       %d requests, %.2f MB shipped over PCIe, %d column transfers elided\n",
				st.PackedRequests, float64(st.TransferBytes)/1e6, st.ResidentCols)
			fmt.Fprintf(w, "fleet:        %d requests, %d morsels (%d pruned), %.2f MB spilled, %d spill transfers elided, %.2f MB merged\n",
				st.FleetRequests, st.FleetMorsels, st.FleetPruned,
				float64(st.FleetSpillBytes)/1e6, st.FleetResidentCols, float64(st.FleetMergeBytes)/1e6)
			for _, d := range st.FleetDevices {
				fmt.Fprintf(w, "  gpu %-2d      %d requests, %d morsels, %d rows, %.3f sim ms, %.2f MB spilled\n",
					d.Device, d.Requests, d.Morsels, d.Rows, d.SimSeconds*1e3, float64(d.SpillBytes)/1e6)
			}
			fmt.Fprintf(w, "placement:    %d requests (%s), %d morsels (%d pruned), %.2f MB shipped, %.2f MB merged\n",
				st.HybridRequests, placementTally(st.PlacementRequests),
				st.HybridMorsels, st.HybridPruned,
				float64(st.HybridShipBytes)/1e6, float64(st.HybridMergeBytes)/1e6)
			for _, ex := range st.HybridExecutors {
				fmt.Fprintf(w, "  %-11s %d requests, %d morsels, %d rows, %.3f sim ms, %.2f MB shipped\n",
					ex.Label, ex.Requests, ex.Morsels, ex.Rows, ex.SimSeconds*1e3, float64(ex.ShipBytes)/1e6)
			}
			if st.DeviceCacheCapBytes > 0 {
				fmt.Fprintf(w, "device cache: %d columns, %.2f/%.2f GB pinned, %.0f%% hit rate, %d evictions\n\n",
					st.DeviceCacheCols, float64(st.DeviceCacheUsedBytes)/1e9,
					float64(st.DeviceCacheCapBytes)/1e9, st.ResidencyHitRate*100, st.ResidentEvictions)
			} else {
				fmt.Fprintf(w, "device cache: disabled\n\n")
			}
			st.Table().Fprint(w)
			return
		}
		writeJSON(w, st)
	}
}

// handleMetrics serves the Prometheus text exposition: every service
// counter plus the per-(engine, placement) latency histograms, rendered
// from the same consistent snapshot /stats returns.
func handleMetrics(svc *serve.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := svc.WriteMetrics(w); err != nil {
			log.Printf("writing metrics: %v", err)
		}
	}
}

// traceSummary is one flight-recorder entry in the /trace listing.
type traceSummary struct {
	ID        string  `json:"id"`
	Query     string  `json:"query"`
	Engine    string  `json:"engine,omitempty"`
	Placement string  `json:"placement,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
	SimMS     float64 `json:"sim_ms"`
	WallMS    float64 `json:"wall_ms"`
}

func summarize(ts []*trace.Trace) []traceSummary {
	out := make([]traceSummary, 0, len(ts))
	for _, t := range ts {
		out = append(out, traceSummary{
			ID:        t.ID,
			Query:     t.Query,
			Engine:    t.Engine,
			Placement: t.Placement,
			Cached:    t.Cached,
			SimMS:     t.Sim * 1e3,
			WallMS:    float64(t.Wall) / float64(time.Millisecond),
		})
	}
	return out
}

// handleTrace serves the flight recorder: ?id= replays one trace (JSON,
// or the EXPLAIN ANALYZE tree with &format=text); without an id it lists
// the recent and slowest retained traces.
func handleTrace(svc *serve.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := svc.TraceRecorder()
		if rec == nil {
			httpError(w, http.StatusNotFound, errors.New("tracing is disabled: restart with -trace"))
			return
		}
		id := r.URL.Query().Get("id")
		if id == "" {
			writeJSON(w, map[string]any{
				"recent":  summarize(rec.Recent()),
				"slowest": summarize(rec.Slowest()),
			})
			return
		}
		tr := rec.Get(id)
		if tr == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("trace %q not found (evicted or never recorded)", id))
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, trace.Render(tr))
			return
		}
		writeJSON(w, tr)
	}
}

// placementTally renders the per-placement request counts ("auto"
// requests count under what the planner chose) in a stable order.
func placementTally(counts map[string]int64) string {
	if len(counts) == 0 {
		return "none"
	}
	var parts []string
	for _, p := range []string{serve.PlacementCPU, serve.PlacementGPU, serve.PlacementHybrid} {
		if n := counts[p]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, p))
		}
	}
	return strings.Join(parts, ", ")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
