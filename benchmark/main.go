// Command benchmark is the repository's wall-clock benchmark of the serving
// path. It drives serve.Service in-process with a seeded request stream,
// checks every reply, and prints the end-to-end metrics (or, traced, the
// per-layer ones) that BENCHMARK.json names. See README.md beside this file.
//
//	go run ./benchmark -workload scan_solo -seed 1 -seconds 15
//	go run ./benchmark -workload scan_solo -seed 1 -seconds 15 -trace 1
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"crystal/internal/serve"
)

// metricDef names one reported metric. The list here is the one
// BENCHMARK.json carries (a test holds the two together); the bounds and
// directions live there.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "req/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"sim_ms_per_req", "sim_ms"},
	{"alloc_kb_per_req", "KB"},
}

var perLayer = []metricDef{
	{"ssb.generate_ms", "ms"}, {"ssb.pack_ms", "ms"}, {"ssb.partition_ms", "ms"},
	{"sql.parse_us", "us"}, {"sql.bind_us", "us"},
	{"planner.optimize_us", "us"}, {"planner.choose_placement_us", "us"},
	{"planner.choose_batch_us", "us"}, {"planner.auto_regret_pct", "sim_%"},
	{"queries.compile_us", "us"}, {"queries.schedule_us", "us"},
	{"queries.run_ms.cpu", "ms"}, {"queries.run_ms.gpu", "ms"}, {"queries.run_ms.hybrid", "ms"},
	{"queries.run_ms.packed", "ms"}, {"queries.run_ms.fleet", "ms"}, {"queries.run_ms.ordered", "ms"},
	{"queries.host_ns_per_row.cpu", "ns"}, {"queries.host_ns_per_row.gpu", "ns"},
	{"queries.allocs_per_run.cpu", "count"}, {"queries.allocs_per_run.gpu", "count"},
	{"queries.alloc_kb_per_run.cpu", "KB"}, {"queries.alloc_kb_per_run.gpu", "KB"},
	{"queries.morsels", "count"}, {"queries.pruned_share", "ratio"},
	{"queries.transfer_bytes", "bytes"}, {"queries.merge_bytes", "bytes"},
	{"queries.batch_member_ms.cpu", "ms"}, {"queries.batch_member_ms.gpu", "ms"},
	{"queries.batch_vs_solo_ratio", "ratio"}, {"queries.shared_scan_share", "ratio"},
	{"crystal.agg_new_us", "us"}, {"crystal.agg_each_us", "us"}, {"crystal.hash_build_us", "us"},
	{"gpu.radix_sort_ns_per_key", "ns"},
	{"fleet.assign_us", "us"}, {"sched.split_hybrid_us", "us"},
	{"pack.bytes_ratio", "ratio"},
	{"serve.hit_us", "us"}, {"serve.overhead_us", "us"}, {"serve.queue_wait_ms", "ms"}, {"serve.p99_ms", "ms"},
	{"serve.result_hit_rate", "ratio"}, {"serve.plan_hit_rate", "ratio"},
	{"serve.coalesced_share", "ratio"}, {"serve.batched_share", "ratio"}, {"serve.batch_size_mean", "count"},
	{"request.run_share", "ratio"}, {"request.frontend_share", "ratio"},
	{"trace.on_overhead_pct", "%"}, {"trace.spans_per_req", "count"}, {"trace.harness_overhead_pct", "%"},
	{"sim.gpu_cpu_speedup", "sim_ratio"}, {"sim.replay_s", "sim_s"},
	{"host.heap_sys_mb", "MB"}, {"host.gc_pause_ms", "ms"}, {"host.nproc", "count"}, {"host.gomaxprocs", "count"},
}

// setUps is how many times a run sets the system up; setup_s is the median.
const setUps = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as -record appends it: the result plus what is
// needed to tell two runs apart or to repeat one.
type runRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Samples is the number of latency samples behind p50/p95; Tail is the
	// highest percentile that many samples support (ten beyond it).
	Samples int     `json:"samples"`
	Tail    float64 `json:"tail_percentile"`
	// SimHeadSeconds is the exact simulated-clock figure: the simulated
	// seconds of the stream's first replayLen requests, summed in request
	// order. It repeats bit for bit for a seed on any host; -compare
	// requires that.
	SimHeadSeconds float64 `json:"sim_head_s"`
	result
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: scan_solo, adhoc_cold, cache_hot or queued_batch")
		seed    = flag.Int64("seed", 1, "seed of the request stream")
		seconds = flag.Int("seconds", 15, "length of the timed phase")
		traced  = flag.Int("trace", 0, "1 reports the per-layer metrics and writes benchmark/out/<workload>.trace.json")
		record  = flag.String("record", "", "append the run record to this file, one JSON object a line")
		compare = flag.Bool("compare", false, "compare two record files: -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	// -compare reads BENCHMARK.json and -trace writes benchmark/out/, both
	// relative to the repository root.
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two record files"))
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if runtime.GOMAXPROCS(0) < pinned {
		fatal(fmt.Errorf("GOMAXPROCS is %d: the workloads need %d workers running at once", runtime.GOMAXPROCS(0), pinned))
	}
	rec := runRecord{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		Commit: commit(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	runErr := run(w, &rec, defs)
	if rec.Attempted > 0 {
		report(os.Stdout, defs, &rec)
		if *record != "" {
			if err := appendRecord(*record, &rec); err != nil {
				fatal(err)
			}
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", runErr)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// run executes one run of w and fills rec with the metrics defs names. A
// returned error means the run was wrong — a bad row, a failed request, or
// traffic that is not what the workload is named for — and rec.Correct is
// false.
func run(w *workload, rec *runRecord, defs []metricDef) error {
	rec.Metrics = map[string]metricValue{}
	reps := setUps
	if rec.Trace {
		reps = 1 // a traced run reports no setup_s
	}
	var (
		in      *instance
		warmed  []serve.Response
		setups  []float64
		metrics = map[string]float64{}
	)
	for i := 0; i < reps; i++ {
		if in != nil {
			in.svc.Close()
		}
		var d time.Duration
		var err error
		if in, warmed, d, err = setUp(w, rec.Seed); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { in.svc.Close() }()
	if err := in.verify(warmed); err != nil {
		return err
	}
	warmed = nil

	before := in.svc.Stats()
	runtime.GC() // the timed phase starts from a collected heap
	ph := in.drive(in.until(time.Duration(rec.Seconds) * time.Second))
	counts := trafficBetween(before, in.svc.Stats())
	rec.Attempted, rec.Failed = ph.attempted, ph.failed
	rec.Samples = len(ph.latencies)
	rec.Tail = highestPercentile(rec.Samples)
	if ph.ok() == 0 {
		return fmt.Errorf("no request succeeded: %s", ph.firstFailure)
	}
	var err error
	if rec.SimHeadSeconds, err = in.simHead(); err != nil {
		return err
	}

	metrics["setup_s"] = median(setups)
	metrics["qps"] = float64(ph.ok()) / ph.elapsed.Seconds()
	metrics["p50_ms"] = percentile(ph.latencies, 50)
	metrics["p95_ms"] = percentile(ph.latencies, 95)
	metrics["sim_ms_per_req"] = 1e3 * ph.simSeconds / float64(ph.ok())
	metrics["alloc_kb_per_req"] = float64(ph.allocBytes) / 1024 / float64(ph.attempted)

	metrics["serve.queue_wait_ms"] = percentile(ph.queueWaits, 50)
	metrics["serve.p99_ms"] = percentile(ph.latencies, 99)
	metrics["serve.result_hit_rate"] = counts.resultHitRate
	metrics["serve.plan_hit_rate"] = counts.planHitRate
	metrics["serve.coalesced_share"] = counts.coalescedShare
	metrics["serve.batched_share"] = counts.batchedShare
	metrics["serve.batch_size_mean"] = counts.batchSizeMean
	metrics["host.heap_sys_mb"] = float64(ph.heapSys) / (1 << 20)
	metrics["host.gc_pause_ms"] = ms(ph.gcPause)
	metrics["host.nproc"] = float64(rec.NProc)
	metrics["host.gomaxprocs"] = float64(rec.GOMAXPROCS)

	var errs []error
	if ph.failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d requests failed; first: %s", ph.failed, ph.attempted, ph.firstFailure))
	}
	if err := w.traffic(counts); err != nil {
		errs = append(errs, fmt.Errorf("%s traffic: %w", w.name, err))
	}
	if rec.Trace {
		if err := in.trace(metrics); err != nil {
			errs = append(errs, err)
		}
	}
	for _, d := range defs {
		rec.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
	}
	rec.Correct = len(errs) == 0
	if !rec.Correct {
		return errs[0]
	}
	return nil
}

// trace runs the traced part of a run: the layer probes, the replay, and
// the composition assertions, then writes the spans out.
func (in *instance) trace(m map[string]float64) error {
	tr := &tracer{t0: time.Now()}
	p := newPipeline(in.ds, in.ds.Pack(), tr)
	if err := in.probeLayers(p, m); err != nil {
		return err
	}
	if err := in.probeServe(p, m); err != nil {
		return err
	}
	if err := in.replay(p, m); err != nil {
		return err
	}
	if err := tr.write(filepath.Join("benchmark", "out", in.w.name+".trace.json")); err != nil {
		return err
	}
	switch in.w.name {
	case "scan_solo":
		if s := m["request.run_share"]; s < 0.85 {
			return fmt.Errorf("scan_solo: the run stage is %.2f of traced request time, want >= 0.85", s)
		}
	case "adhoc_cold":
		if s := m["request.frontend_share"]; s < 0.60 {
			return fmt.Errorf("adhoc_cold: sql+planner+compile are %.2f of traced request time, want >= 0.60", s)
		}
	}
	return nil
}

// report prints every metric by name with its unit, then the result line.
func report(out io.Writer, defs []metricDef, rec *runRecord) {
	fmt.Fprintf(out, "workload %s  seed %d  seconds %d  commit %s  nproc %d  GOMAXPROCS %d  %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Commit, rec.NProc, rec.GOMAXPROCS, rec.GoVersion)
	fmt.Fprintf(out, "attempted %d  failed %d  fail_share %g  latency samples %d (highest percentile they support: p%g)\n",
		rec.Attempted, rec.Failed, float64(rec.Failed)/float64(max(rec.Attempted, 1)), rec.Samples, rec.Tail)
	fmt.Fprintf(out, "sim_head_s %v simulated s over the first %d requests (exact: the same for this seed on any host)\n",
		rec.SimHeadSeconds, replayLen)
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}

func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
