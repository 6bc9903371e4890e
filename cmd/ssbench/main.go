// Command ssbench regenerates the paper's full-query evaluation on the
// Star Schema Benchmark:
//
//	-fig3   MonetDB vs GPU-coprocessor vs Hyper (Figure 3)
//	-fig16  Hyper, Standalone CPU, Omnisci, Standalone GPU (Figure 16)
//	-case21 the Section 5.3 q2.1 case study (model vs measured)
//	-cost   the Section 5.4 dollar-cost comparison (Table 3)
//	-gpus N the multi-GPU fleet sweep over 1..N GPUs (-all runs it at 8)
//	-sql    one ad-hoc SQL statement, compiled by internal/sql, on every engine
//	-load   the seeded overload simulator against an in-process serving stack
//	-all    everything (except -sql, -explain, -percentiles and -load)
//
// -load measures closed-loop saturation, then offers open-loop Poisson
// traffic with Zipf query popularity at -load-mult multiples of that rate
// and reports goodput, shed rate, coalesce rate and p50/p99 per phase
// (see internal/loadgen; -load-json emits the sweep as JSON).
//
// -explain q4.1 runs the named query traced through the unified scheduler
// on the cpu, gpu and hybrid placements (over -interconnect, GPU arms
// sized by -hybrid-gpus) and prints each run's EXPLAIN ANALYZE span tree:
// per-executor kernel and transfer times, bytes shipped, morsels pruned,
// and the merge cost — the same tree ssbserve's /trace endpoint renders.
//
// -percentiles reports p50/p95/p99 simulated latency per engine across
// the 13 catalog queries, next to the mean the tables report. The bench
// gates (benchgate, BENCH_*.json) deliberately stay on means — a seeded
// simulation has no tail noise to trim — so percentiles are an
// observability surface, not a gating one.
//
// -partitions N runs every scan as N zone-mapped morsels (identical times
// on the uniform layout; combine with -cluster orderdate to watch pruning
// skip morsels and the plan costs drop), and appends a pruning report.
//
// -packed runs every scan over the bit-packed fact encoding (Section 5.5):
// rows are identical, the GPU engines get cheaper in proportion to the
// compression ratio while the CPU engines pay unpack arithmetic, the
// coprocessor ships compressed bytes over PCIe (and fewer once a V100's
// memory of packed columns is resident), and a per-column compression
// report is appended. Combine with -cluster to watch the sort
// column's per-frame widths collapse.
//
// Queries execute functionally at the given scale factor (default 2; the
// paper uses 20) and the reported milliseconds are additionally
// extrapolated to SF 20 with the linear bandwidth model, so the rows are
// directly comparable with the paper's figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"crystal/internal/bench"
	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/model"
	"crystal/internal/planner"
	"crystal/internal/queries"
	sqlfe "crystal/internal/sql"
	"crystal/internal/ssb"
	"crystal/internal/trace"
)

var (
	flagSF  = flag.Int("sf", 2, "scale factor to execute functionally (paper: 20)")
	fig3    = flag.Bool("fig3", false, "run Figure 3")
	fig16   = flag.Bool("fig16", false, "run Figure 16")
	case21  = flag.Bool("case21", false, "run the Section 5.3 q2.1 case study")
	cost    = flag.Bool("cost", false, "run the Section 5.4 cost comparison")
	plans   = flag.Bool("plans", false, "rank the q2.1 join orders with the cost-based planner (Section 5.3)")
	all     = flag.Bool("all", false, "run everything")
	dataset = flag.String("data", "", "load a dataset written by datagen instead of generating")
	sqlStmt = flag.String("sql", "", "run one ad-hoc SQL statement across every engine and print its rows")
	parts   = flag.Int("partitions", 0, "split each fact scan into this many zone-mapped morsels (0 = monolithic)")
	cluster = flag.String("cluster", "", "sort the fact table by this column first (clustered layouts give zone maps pruning power)")
	packed  = flag.Bool("packed", false, "scan the bit-packed fact encoding (Section 5.5 compressed execution)")
	gpus    = flag.Int("gpus", 0, "sweep fleet execution from 1 up to N GPUs and report scaling efficiency")
	link    = flag.String("interconnect", "nvlink", "fleet interconnect for -gpus and -hybrid (pcie or nvlink)")
	hybrid  = flag.Bool("hybrid", false, "run hybrid CPU+GPU co-execution on both interconnects and report the planner's placement verdicts")
	hgpus   = flag.Int("hybrid-gpus", 1, "GPU-arm fleet size for -hybrid and -explain")
	explain = flag.String("explain", "", "run this catalog query traced on the cpu, gpu and hybrid placements and print the EXPLAIN ANALYZE span trees")
	pcts    = flag.Bool("percentiles", false, "report p50/p95/p99 simulated latency per engine (means stay the gated metric)")
)

// packedFact is the shared packed encoding when -packed is set (built once,
// after any -cluster re-sort).
var packedFact *ssb.PackedFact

const paperSF = 20

func main() {
	flag.Parse()
	if *loadRun {
		// The load simulator brings its own small dataset and serving
		// stack; none of the paper-table machinery below applies.
		if err := runLoad(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if !(*fig3 || *fig16 || *case21 || *cost || *plans || *gpus > 0 || *hybrid ||
		*sqlStmt != "" || *explain != "" || *pcts) {
		*all = true
	}
	if *all && *gpus == 0 {
		*gpus = 8 // -all sweeps fleets of 1..8 GPUs
	}
	if *gpus > 0 {
		// Fail fast on a bad -interconnect, before minutes of dataset
		// generation and benchmark sections run for nothing.
		if _, err := fleet.ParseInterconnect(*link); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var ds *ssb.Dataset
	var err error
	if *dataset != "" {
		ds, err = ssb.Load(*dataset)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("generating SSB at SF %d...\n", *flagSF)
		ds = ssb.Generate(*flagSF)
	}
	if *cluster != "" {
		if !slices.Contains(ssb.FactColumns(), *cluster) {
			fmt.Fprintf(os.Stderr, "unknown -cluster column %q (fact columns: %s)\n",
				*cluster, strings.Join(ssb.FactColumns(), ", "))
			os.Exit(1)
		}
		fmt.Printf("clustering fact table by %s...\n", *cluster)
		ds = ds.ClusterBy(*cluster)
	}
	fmt.Printf("dataset: SF %d, %d fact rows, %.2f GB\n", ds.SF, ds.Lineorder.Rows(), float64(ds.Bytes())/1e9)
	if *parts > 0 {
		fmt.Printf("partitioned execution: %d zone-mapped morsels per scan\n", *parts)
	}
	if *packed {
		fmt.Print("packing fact columns...\n")
		packedFact = ds.Pack()
		fmt.Printf("compressed execution: %.2f GB packed (%.2fx)\n",
			float64(packedFact.Bytes())/1e9, packedFact.Ratio())
	}
	fmt.Println()

	// Times are extrapolated to SF 20 by scaling the fact-dependent portion.
	scaleTo := int64(paperSF) * ssb.LineorderPerSF
	scale := func(r *queries.Result) float64 {
		return bench.MS(bench.Scale(r.Seconds, int64(ds.Lineorder.Rows()), scaleTo))
	}

	if *all || *fig3 {
		runTable(ds, scale,
			"Figure 3: coprocessor evaluation, SSB extrapolated to SF 20 (ms)",
			[]queries.Engine{queries.EngineMonet, queries.EngineCoproc, queries.EngineHyper})
		fmt.Println("paper: GPU coprocessor 1.5x faster than MonetDB but 1.4x slower than Hyper;")
		fmt.Println("       every coprocessor query is bound by PCIe transfer time")
		fmt.Println()
	}
	if *all || *fig16 {
		runTable(ds, scale,
			"Figure 16: standalone engines, SSB extrapolated to SF 20 (ms)",
			[]queries.Engine{queries.EngineHyper, queries.EngineCPU, queries.EngineOmnisci, queries.EngineGPU})
		// Same execution flags as the table above, so the ratio annotates
		// what is actually displayed (packed runs shift it: the CPU pays
		// unpack cycles while the GPU banks the traffic saving).
		var ratios []float64
		for _, q := range queries.All() {
			plan := queries.Compile(ds, q)
			ratios = append(ratios, exec(plan, queries.EngineCPU).Seconds/exec(plan, queries.EngineGPU).Seconds)
		}
		fmt.Printf("mean Standalone CPU / Standalone GPU ratio: %.1fx (paper: ~25x; bandwidth ratio 16.2x)\n", mean(ratios))
		fmt.Println("paper: Standalone CPU ~1.17x faster than Hyper; Standalone GPU ~16x faster than Omnisci")
		fmt.Println()
	}
	if *all || *case21 {
		runCase21(ds, scale)
	}
	if *all || *cost {
		runCost(ds)
	}
	if *gpus > 0 {
		if err := runFleetSweep(ds, *gpus, *link); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *all || *hybrid {
		if err := runHybrid(ds, *hgpus); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *all || *plans {
		runPlans(ds)
	}
	if *parts > 0 {
		runPruneReport(ds, *parts)
	}
	if *packed {
		runPackedReport(ds)
	}
	if *pcts {
		runPercentiles(ds)
	}
	if *explain != "" {
		if err := runExplain(ds, *explain, *link, *hgpus); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *sqlStmt != "" {
		if err := runSQL(ds, scale, *sqlStmt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runExplain runs one catalog query traced through the unified scheduler
// on each placement and prints the EXPLAIN ANALYZE trees: the same span
// renderer ssbserve's /trace?format=text endpoint uses, so what a bench
// user reads locally is exactly what the service records in flight.
func runExplain(ds *ssb.Dataset, id, linkName string, gpuArms int) error {
	ic, err := fleet.ParseInterconnect(linkName)
	if err != nil {
		return err
	}
	q, err := queries.ByID(id)
	if err != nil {
		return err
	}
	bench.Banner(os.Stdout, fmt.Sprintf("EXPLAIN ANALYZE %s over %s (%d GPU arm(s))", q.ID, ic, gpuArms))
	plan := queries.Compile(ds, q)
	arm := flagShape(queries.Shape{GPUs: gpuArms, Link: ic.Name})
	for _, placement := range []string{queries.PlacementCPU, queries.PlacementGPU, queries.PlacementHybrid} {
		hr, err := run(plan, arm.Place(placement), true)
		if err != nil {
			return err
		}
		tr := &trace.Trace{
			Query:        q.ID,
			Placement:    placement,
			GPUs:         gpuArms,
			Interconnect: ic.Name,
			Sim:          hr.Result.Seconds,
			Wall:         hr.Trace.Wall,
			Root:         &trace.Span{Phase: trace.PhaseRequest, Children: []*trace.Span{hr.Trace}},
		}
		fmt.Print(trace.Render(tr))
		fmt.Println()
	}
	return nil
}

// runPercentiles prints the per-engine latency distribution over the 13
// catalog queries: the mean the bench tables gate on, then p50/p95/p99
// from the same log-bucketed histograms the serving layer exposes on
// /metrics. Gating (benchgate, BENCH_*.json) stays on means; the
// percentile columns are observability only.
func runPercentiles(ds *ssb.Dataset) {
	bench.Banner(os.Stdout, "per-engine latency percentiles, extrapolated to SF 20 (ms)")
	scaleTo := int64(paperSF) * ssb.LineorderPerSF
	hists := map[queries.Engine]*trace.Histogram{}
	sums := map[queries.Engine]float64{}
	for _, e := range queries.Engines() {
		hists[e] = &trace.Histogram{}
	}
	for _, q := range queries.All() {
		plan := queries.Compile(ds, q)
		for _, e := range queries.Engines() {
			sec := bench.Scale(exec(plan, e).Seconds, int64(ds.Lineorder.Rows()), scaleTo)
			hists[e].Observe(sec)
			sums[e] += sec
		}
	}
	tb := &bench.Table{Title: "simulated latency (ms)", Columns: []string{"mean", "p50", "p95", "p99"}, NoMean: true}
	for _, e := range queries.Engines() {
		h := hists[e]
		tb.AddRow(string(e),
			bench.MS(sums[e]/float64(h.Count())),
			bench.MS(h.Quantile(0.50)), bench.MS(h.Quantile(0.95)), bench.MS(h.Quantile(0.99)))
	}
	tb.Fprint(os.Stdout)
	fmt.Println("gating note: benchgate and the BENCH_*.json baselines compare means only;")
	fmt.Println("the simulation is seeded and deterministic, so percentiles add no gate signal")
	fmt.Println()
}

// runSQL compiles one ad-hoc statement through the SQL frontend, reorders
// its joins with the cost-based planner (payload order preserved), runs it
// on every engine and on every scheduler placement (cpu, gpu, fleet,
// hybrid), cross-checks the rows — order included for ORDER BY statements —
// and prints the result table.
func runSQL(ds *ssb.Dataset, scale func(*queries.Result) float64, stmt string) error {
	q, err := sqlfe.Compile(stmt)
	if err != nil {
		return err
	}
	q = planner.OptimizeGrouped(device.V100(), ds, q)
	bench.Banner(os.Stdout, "ad-hoc SQL ("+q.ID+"), extrapolated to SF 20")
	fmt.Printf("%s\n\n", q.Describe())

	tb := &bench.Table{Title: "engine times (ms)"}
	plan := queries.Compile(ds, q)
	var results []*queries.Result
	for _, e := range queries.Engines() {
		res := exec(plan, e)
		results = append(results, res)
		tb.Columns = append(tb.Columns, string(e))
	}
	var vals []float64
	for _, res := range results {
		vals = append(vals, scale(res))
	}
	tb.AddRow(q.ID, vals...)
	tb.Fprint(os.Stdout)

	for i, res := range results[1:] {
		if !res.Equal(results[0]) {
			return fmt.Errorf("engine %s disagrees with %s on the result rows",
				queries.Engines()[i+1], queries.Engines()[0])
		}
	}

	// The four scheduler placements must return the same rows in the same
	// order as the engines (fleet merges per-device sorted runs, hybrid
	// sorts host-side — both must land on the identical total order).
	ic, err := fleet.ParseInterconnect(*link)
	if err != nil {
		return err
	}
	gpuArms := max(*hgpus, 2)
	ptb := &bench.Table{Title: "placement times (ms)", Columns: []string{"cpu", "gpu", "fleet", "hybrid"}}
	var pvals []float64
	for i, sh := range []queries.Shape{
		{Engine: queries.EngineCPU},
		{Engine: queries.EngineGPU},
		{Engine: queries.EngineGPU, GPUs: gpuArms, Link: ic.Name},
		{Placement: queries.PlacementHybrid, GPUs: gpuArms, Link: ic.Name},
	} {
		sr, err := run(plan, flagShape(sh), false)
		if err != nil {
			return err
		}
		if !sr.Result.Equal(results[0]) {
			return fmt.Errorf("placement %s disagrees with the engines on the result rows", ptb.Columns[i])
		}
		pvals = append(pvals, scale(sr.Result))
	}
	ptb.AddRow(q.ID, pvals...)
	ptb.Fprint(os.Stdout)

	rows := q.DecodeRows(results[0])
	fmt.Printf("\n%d result row(s):\n", len(rows))
	if len(rows) > 0 {
		var hdr strings.Builder
		for _, gp := range q.GroupPayloads() {
			fmt.Fprintf(&hdr, "%-14s", gp.Payload)
		}
		for _, s := range q.AggList() {
			fmt.Fprintf(&hdr, "%16s", s.SQL())
		}
		fmt.Println(hdr.String())
	}
	for _, r := range rows {
		for _, l := range r.Labels {
			fmt.Printf("%-14s", l)
		}
		for _, v := range r.Vals {
			fmt.Printf("%16d", v)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

// runPlans reproduces the Section 5.3 plan-selection exercise: every join
// order of q2.1 costed on both devices.
func runPlans(ds *ssb.Dataset) {
	bench.Banner(os.Stdout, "Section 5.3: cost-based join ordering for q2.1")
	q, err := queries.ByID("q2.1")
	if err != nil {
		panic(err)
	}
	for _, dev := range []*device.Spec{device.V100(), device.I76900()} {
		fmt.Printf("%s:\n", dev.Name)
		for i, p := range planner.Choose(dev, ds, q) {
			marker := " "
			if i == 0 {
				marker = "*"
			}
			fmt.Printf("  %s %s\n", marker, p.Describe())
		}
	}
	fmt.Println("on the GPU the planner lands on the paper's hand-picked supplier->part->date;")
	fmt.Println("on the CPU it prefers the most selective join (part) first, because dependent")
	fmt.Println("probes are latency bound and shrinking them early pays more than cache fit")
	fmt.Println()
}

// runFleetSweep runs every catalog query on fleets of 1..n GPUs (powers of
// two, plus n itself) over the chosen interconnect and reports per-query
// simulated milliseconds at SF 20, then the q1.x flight's speedup and
// scaling efficiency per fleet size. The -partitions and -packed flags
// apply; shards always fit the V100's 32 GB here, so no spill term shows.
func runFleetSweep(ds *ssb.Dataset, n int, linkName string) error {
	ic, err := fleet.ParseInterconnect(linkName)
	if err != nil {
		return err
	}
	var counts []int
	for k := 1; k < n; k *= 2 {
		counts = append(counts, k)
	}
	counts = append(counts, n)

	bench.Banner(os.Stdout, fmt.Sprintf("multi-GPU fleet sweep over %s, extrapolated to SF 20 (ms)", ic))
	scaleTo := int64(paperSF) * ssb.LineorderPerSF
	scale := func(sec float64) float64 {
		return bench.MS(bench.Scale(sec, int64(ds.Lineorder.Rows()), scaleTo))
	}
	tb := &bench.Table{Title: "fleet times (ms)"}
	for _, k := range counts {
		tb.Columns = append(tb.Columns, fmt.Sprintf("%d GPU(s)", k))
	}
	// flight[k] accumulates the q1.x flight's simulated seconds per count.
	flight := map[int]float64{}
	for _, q := range queries.All() {
		plan := queries.Compile(ds, q)
		var vals []float64
		for _, k := range counts {
			fr, err := run(plan, flagShape(queries.Shape{Engine: queries.EngineGPU, GPUs: k, Link: ic.Name}), false)
			if err != nil {
				return err
			}
			vals = append(vals, scale(fr.Result.Seconds))
			if strings.HasPrefix(q.ID, "q1.") {
				flight[k] += fr.Result.Seconds
			}
		}
		tb.AddRow(q.ID, vals...)
	}
	tb.Fprint(os.Stdout)

	fmt.Println("q1.x flight (scan bound — the purest scaling signal):")
	base := flight[counts[0]]
	for _, k := range counts {
		speedup := base / flight[k]
		fmt.Printf("  %2d GPU(s): %8.3f ms  %5.2fx speedup  %3.0f%% scaling efficiency\n",
			k, scale(flight[k]), speedup, speedup/float64(k)*100)
	}
	fmt.Println("merge and launch overheads bound the tail: each device pays its kernel")
	fmt.Println("launch and ships its partial aggregates, so efficiency falls with the fleet")
	fmt.Println()
	return nil
}

// runHybrid prints the hybrid CPU+GPU co-execution crossover: every
// catalog query priced and executed as pure CPU, pure GPU (host-resident —
// every referenced column ships per query) and the planner-split hybrid,
// on both interconnects, with planner.ChoosePlacement's verdict per query.
// On PCIe the shipment drowns the GPU arm and the planner stays on the
// CPU; on NVLink the hybrid split wins the scan-heavy flights.
func runHybrid(ds *ssb.Dataset, gpuArms int) error {
	scaleTo := int64(paperSF) * ssb.LineorderPerSF
	scale := func(sec float64) float64 {
		return bench.MS(bench.Scale(sec, int64(ds.Lineorder.Rows()), scaleTo))
	}
	for _, ic := range fleet.Interconnects() {
		bench.Banner(os.Stdout, fmt.Sprintf(
			"hybrid CPU+GPU co-execution over %s (%d GPU arm(s)), extrapolated to SF 20 (ms)", ic, gpuArms))
		tb := &bench.Table{Title: "placement times (ms)"}
		tb.Columns = []string{"cpu", "gpu", "hybrid"}
		fl := fleet.Spec{GPUs: gpuArms, Link: ic}
		arm := flagShape(queries.Shape{GPUs: gpuArms, Link: ic.Name})
		verdicts := map[string]int{}
		for _, q := range queries.All() {
			plan := queries.Compile(ds, q)
			var vals []float64
			for _, placement := range []string{queries.PlacementCPU, queries.PlacementGPU, queries.PlacementHybrid} {
				hr, err := run(plan, arm.Place(placement), false)
				if err != nil {
					return err
				}
				vals = append(vals, scale(hr.Result.Seconds))
			}
			nParts := *parts
			if nParts < gpuArms+1 {
				nParts = gpuArms + 1
			}
			choice, _, err := planner.ChoosePlacement(fl, ds, q, ds.Partition(nParts), packedFact)
			if err != nil {
				return err
			}
			verdicts[choice]++
			tb.AddRow(fmt.Sprintf("%-5s -> %s", q.ID, choice), vals...)
		}
		tb.Fprint(os.Stdout)
		fmt.Printf("planner verdicts: %d cpu, %d gpu, %d hybrid of %d queries\n\n",
			verdicts[queries.PlacementCPU], verdicts[queries.PlacementGPU], verdicts[queries.PlacementHybrid],
			len(queries.All()))
	}
	fmt.Println("hybrid wins only where the interconnect can feed the GPU arms: the PCIe")
	fmt.Println("shipment costs more than the CPU's direct scan (the paper's coprocessor")
	fmt.Println("verdict), while NVLink turns the same split into combined throughput")
	fmt.Println()
	return nil
}

// run executes plan on the execution shape sh through Plan.Schedule, the
// one shape-to-schedule switch the query service uses too. The shape
// carries the morsel count and whether the scan reads the packed encoding;
// trace asks for the span tree.
func run(plan *queries.Plan, sh queries.Shape, trace bool) (*queries.ScheduledResult, error) {
	opts := queries.RunOptions{Trace: trace}
	if sh.Packed {
		opts.Partition.Packed = packedFact
	}
	s, _, err := plan.Schedule(sh, opts)
	if err != nil {
		return nil, err
	}
	return plan.RunScheduled(s)
}

// flagShape is sh under the -partitions and -packed flags. With no pruning
// (the uniform layout) the partitioned times are identical to the
// monolithic ones; with -cluster they can only be cheaper; with -packed the
// rows stay identical while the simulated seconds reflect the compression
// asymmetry.
func flagShape(sh queries.Shape) queries.Shape {
	sh.Partitions, sh.Packed = *parts, packedFact != nil
	return sh
}

// exec runs one compiled plan on one engine under the -partitions and
// -packed flags. Callers compile once per query so the hash-table builds
// and the plan's zone-map cache are shared across engines.
func exec(plan *queries.Plan, e queries.Engine) *queries.Result {
	sr, err := run(plan, flagShape(queries.Shape{Engine: e}), false)
	if err != nil {
		panic(err) // unreachable: an engine shape schedules every morsel exactly once
	}
	return sr.Result
}

// runPackedReport summarizes the -packed encoding: per fact column, the
// frame-width range, the packed footprint and the compression ratio, plus
// the planner's packed-vs-plain scan verdict per device and the q1.1
// coprocessor transfer saving.
func runPackedReport(ds *ssb.Dataset) {
	bench.Banner(os.Stdout, "compressed execution (Section 5.5)")
	rows := ds.Lineorder.Rows()
	for _, col := range ssb.FactColumns() {
		fr := packedFact.Col(col)
		lo, hi := fr.WidthRange(0, rows)
		fmt.Printf("  %-11s %2d..%2d bits/frame  %8.2f MB packed  (%.2fx)\n",
			col, lo, hi, float64(fr.Bytes())/1e6, fr.Ratio())
	}
	q, err := queries.ByID("q1.1")
	if err != nil {
		panic(err)
	}
	var filterCols []string
	for _, f := range q.FactFilters {
		filterCols = append(filterCols, f.Col)
	}
	for _, dev := range []*device.Spec{device.V100(), device.I76900()} {
		plain := planner.ScanCost(dev, int64(rows), len(filterCols))
		pk := planner.ScanCostPacked(dev, packedFact, int64(rows), filterCols)
		verdict := "packed wins"
		if pk >= plain {
			verdict = "plain wins (unpack is compute bound)"
		}
		fmt.Printf("  q1.1 filter scan on %-14s plain %8.3f ms, packed %8.3f ms  -> %s\n",
			dev.Name, bench.MS(plain), bench.MS(pk), verdict)
	}
	plan := queries.Compile(ds, q)
	plain := plan.Run(queries.EngineCoproc)
	cold, err := run(plan, queries.Shape{Engine: queries.EngineCoproc, Packed: true}, false)
	if err != nil {
		panic(err)
	}
	// The third run keeps a V100's memory of packed columns resident.
	// q1.1 joins no dimensions, so its whole transfer is fact columns the
	// resident set can elide; queries with joins keep shipping their
	// (small) replicated dimension tables even when fully resident.
	opts := queries.RunOptions{DeviceCacheBytes: device.V100().MemoryBytes}
	opts.Partition.Packed = packedFact
	s, _, err := plan.Schedule(queries.Shape{Engine: queries.EngineCoproc}, opts)
	if err != nil {
		panic(err)
	}
	resident, err := plan.RunScheduled(s)
	if err != nil {
		panic(err)
	}
	mb := func(b int64) float64 { return float64(b) / 1e6 }
	ms := func(b int64) float64 { return bench.MS(device.TransferTime(b)) }
	p, c, r := plain.TransferBytes, cold.Result.TransferBytes, resident.Result.TransferBytes
	fmt.Printf("  q1.1 coprocessor PCIe: %.2f MB plain -> %.2f MB packed -> %.2f MB resident (%.3f ms -> %.3f ms -> %.3f ms)\n",
		mb(p), mb(c), mb(r), ms(p), ms(c), ms(r))
	fmt.Println()
}

func runTable(ds *ssb.Dataset, scale func(*queries.Result) float64, title string, engines []queries.Engine) {
	tb := &bench.Table{Title: title}
	for _, e := range engines {
		tb.Columns = append(tb.Columns, string(e))
	}
	for _, q := range queries.All() {
		plan := queries.Compile(ds, q)
		var vals []float64
		for _, e := range engines {
			vals = append(vals, scale(exec(plan, e)))
		}
		tb.AddRow(q.ID, vals...)
	}
	tb.Fprint(os.Stdout)
}

// runPruneReport summarizes what zone maps buy at the requested partition
// count: per query, the morsels pruned and the planner's monolithic vs
// pruning-aware cost on the GPU device.
func runPruneReport(ds *ssb.Dataset, n int) {
	bench.Banner(os.Stdout, fmt.Sprintf("zone-map pruning at %d morsels", n))
	morsels := ds.Partition(n)
	dev := device.V100()
	totalPruned, total := 0, 0
	for _, q := range queries.All() {
		pr := planner.PruneEstimate(morsels, q)
		mono := planner.Choose(dev, ds, q)[0].Seconds
		pruned := planner.ChoosePartitioned(dev, ds, q, morsels)[0].Seconds
		fmt.Printf("  %-5s %3d/%3d morsels pruned   plan cost %8.3f ms -> %8.3f ms\n",
			q.ID, pr.Pruned, pr.Morsels, bench.MS(mono), bench.MS(pruned))
		totalPruned += pr.Pruned
		total += pr.Morsels
	}
	fmt.Printf("total: %d/%d morsels pruned", totalPruned, total)
	if totalPruned == 0 {
		fmt.Printf(" (uniform layouts never prune; try -cluster orderdate)")
	}
	fmt.Println()
	fmt.Println()
}

func runCase21(ds *ssb.Dataset, scale func(*queries.Result) float64) {
	bench.Banner(os.Stdout, "Section 5.3 case study: SSB q2.1, extrapolated to SF 20")
	q, err := queries.ByID("q2.1")
	if err != nil {
		panic(err)
	}
	plan := queries.Compile(ds, q)
	gpuT := scale(plan.Run(queries.EngineGPU))
	cpuT := scale(plan.Run(queries.EngineCPU))
	p := model.SF20()
	gpuModel := bench.MS(model.Query21(device.V100(), p))
	cpuModel := bench.MS(model.Query21(device.I76900(), p))
	fmt.Printf("GPU: model %6.2f ms, measured %6.2f ms   (paper: 3.7 model, 3.86 measured)\n", gpuModel, gpuT)
	fmt.Printf("CPU: model %6.2f ms, measured %6.2f ms   (paper: 47 model, 125 measured)\n", cpuModel, cpuT)
	fmt.Println("the GPU tracks its bandwidth model; the CPU lands far above its model because")
	fmt.Println("chained join probes stall the pipeline (no latency hiding; Section 5.3)")
	fmt.Println()
}

func runCost(ds *ssb.Dataset) {
	bench.Banner(os.Stdout, "Section 5.4: cost comparison (Table 3)")
	var ratios []float64
	for _, q := range queries.All() {
		plan := queries.Compile(ds, q)
		ratios = append(ratios, plan.Run(queries.EngineCPU).Seconds/plan.Run(queries.EngineGPU).Seconds)
	}
	speedup := mean(ratios)
	c := bench.DefaultCost()
	fmt.Printf("renting: CPU $%.3f/h (r5.2xlarge), GPU $%.2f/h (p3.2xlarge), ratio %.1fx\n",
		c.CPURentPerHour, c.GPURentPerHour, c.Ratio())
	fmt.Printf("mean SSB speedup: %.1fx\n", speedup)
	fmt.Printf("GPU cost effectiveness: %.1fx better per dollar (paper: ~4x with 25x speedup)\n\n", c.Effectiveness(speedup))
}

func mean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
