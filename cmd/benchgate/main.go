// Command benchgate is the benchmark-regression gate: it measures the
// q1.x flight's simulated seconds on NVLink fleets of 1/2/4/8 GPUs and on
// the scheduler's host-resident placements (cpu, gpu, hybrid over both
// interconnects) against a fixed generated dataset, and either writes the
// results as the checked-in baselines (-write, `make bench-baseline`) or
// compares against them and fails on regression (-check, `make
// bench-check`, wired into CI).
//
// Simulated seconds are deterministic — the device model prices integer
// traffic counts — so the gate is exact up to floating-point platform
// differences; the 5% tolerance exists to absorb intentional model tweaks,
// not measurement noise. A >5% simulated-seconds regression on any fleet
// size or any placement fails the check; improvements pass with a reminder
// to re-baseline.
//
// It also maintains BENCH_sort.json, the ORDER BY / top-N placement
// baseline: top-5 ordered variants of one grouped query per flight, timed
// on the cpu (heap/merge), gpu (radix), fleet (per-device sorted runs,
// host k-way merge) and hybrid placements, gated with the same tolerance.
//
// It also maintains BENCH_serve.json, the wall-clock serving-overload
// baseline: goodput and p99 at 1x and 10x of measured saturation for the
// cpu, gpu and hybrid scheduler placements (see serve.go). Those values
// are machine-dependent, so -check re-measures and gates on shape
// invariants (no congestion collapse, coalescing and shedding engage,
// deadline-bounded p99) rather than comparing wall clocks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"crystal/internal/fleet"
	"crystal/internal/queries"
	"crystal/internal/ssb"
)

var (
	flagFile       = flag.String("file", "BENCH_fleet.json", "fleet baseline file")
	flagHybridFile = flag.String("hybrid-file", "BENCH_hybrid.json", "hybrid placement baseline file")
	flagSortFile   = flag.String("sort-file", "BENCH_sort.json", "ORDER BY / top-N placement baseline file")
	flagRows       = flag.Int("rows", 1<<21, "fact rows of the fixed benchmark dataset")
	flagWrite      = flag.Bool("write", false, "write the baselines")
	flagCheck      = flag.Bool("check", false, "check against the baselines")
)

// tolerance is the allowed relative simulated-seconds regression.
const tolerance = 0.05

// hybridPartitions is the morsel count of the placement measurements: fine
// enough that the balanced CPU fraction is honored (the crossover regime
// the planner's model is pinned on), matching TestHybridCrossover.
const hybridPartitions = 64

// gateEntry is one fleet size's measurement.
type gateEntry struct {
	GPUs int `json:"gpus"`
	// FlightSeconds is the q1.x flight's total simulated seconds.
	FlightSeconds float64 `json:"flight_seconds"`
	// Speedup is vs the 1-GPU fleet; Efficiency is Speedup/GPUs.
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// gateBaseline is the checked-in fleet baseline document.
type gateBaseline struct {
	Rows         int         `json:"rows"`
	Interconnect string      `json:"interconnect"`
	TolerancePct float64     `json:"tolerance_pct"`
	Fleet        []gateEntry `json:"fleet"`
}

// hybridEntry is one interconnect's placement measurement: the q1.x
// flight's total simulated seconds on each host-resident placement, all
// executed through the unified scheduler (a 1-GPU arm, 64 morsels).
type hybridEntry struct {
	Interconnect  string  `json:"interconnect"`
	CPUSeconds    float64 `json:"cpu_seconds"`
	GPUSeconds    float64 `json:"gpu_seconds"`
	HybridSeconds float64 `json:"hybrid_seconds"`
}

// hybridBaseline is the checked-in hybrid placement baseline document.
type hybridBaseline struct {
	Rows         int           `json:"rows"`
	Partitions   int           `json:"partitions"`
	TolerancePct float64       `json:"tolerance_pct"`
	Links        []hybridEntry `json:"links"`
}

// flightPlans compiles the q1.x flight against ds.
func flightPlans(ds *ssb.Dataset) ([]*queries.Plan, error) {
	flightIDs := []string{"q1.1", "q1.2", "q1.3"}
	plans := make([]*queries.Plan, len(flightIDs))
	for i, id := range flightIDs {
		q, err := queries.ByID(id)
		if err != nil {
			return nil, err
		}
		plans[i] = queries.Compile(ds, q)
	}
	return plans, nil
}

// shapeSeconds is the simulated time of plan on the execution shape sh,
// scheduled through Plan.Schedule like every served request.
func shapeSeconds(plan *queries.Plan, sh queries.Shape) (float64, error) {
	s, _, err := plan.Schedule(sh, queries.RunOptions{})
	if err != nil {
		return 0, err
	}
	sr, err := plan.RunScheduled(s)
	if err != nil {
		return 0, err
	}
	return sr.Result.Seconds, nil
}

// placementShape is placement on a 1-GPU arm behind link over
// hybridPartitions morsels; "cpu" is the CPU engine shape.
func placementShape(placement string, link fleet.Interconnect) queries.Shape {
	return queries.Shape{GPUs: 1, Link: link.Name, Partitions: hybridPartitions}.Place(placement)
}

func measureFleet(ds *ssb.Dataset) (gateBaseline, error) {
	out := gateBaseline{Rows: ds.Lineorder.Rows(), Interconnect: "nvlink", TolerancePct: tolerance * 100}
	plans, err := flightPlans(ds)
	if err != nil {
		return out, err
	}
	var base float64
	for _, gpus := range []int{1, 2, 4, 8} {
		var flight float64
		for _, plan := range plans {
			sec, err := shapeSeconds(plan, queries.Shape{Engine: queries.EngineGPU, GPUs: gpus, Link: fleet.NVLink().Name})
			if err != nil {
				return out, err
			}
			flight += sec
		}
		if gpus == 1 {
			base = flight
		}
		speedup := base / flight
		out.Fleet = append(out.Fleet, gateEntry{
			GPUs:          gpus,
			FlightSeconds: flight,
			Speedup:       speedup,
			Efficiency:    speedup / float64(gpus),
		})
	}
	return out, nil
}

func measureHybrid(ds *ssb.Dataset) (hybridBaseline, error) {
	out := hybridBaseline{Rows: ds.Lineorder.Rows(), Partitions: hybridPartitions, TolerancePct: tolerance * 100}
	plans, err := flightPlans(ds)
	if err != nil {
		return out, err
	}
	for _, link := range fleet.Interconnects() {
		entry := hybridEntry{Interconnect: link.Name}
		for _, plan := range plans {
			for _, m := range []struct {
				placement string
				out       *float64
			}{{queries.PlacementCPU, &entry.CPUSeconds}, {queries.PlacementGPU, &entry.GPUSeconds}, {queries.PlacementHybrid, &entry.HybridSeconds}} {
				sec, err := shapeSeconds(plan, placementShape(m.placement, link))
				if err != nil {
					return out, err
				}
				*m.out += sec
			}
		}
		out.Links = append(out.Links, entry)
	}
	return out, nil
}

// sortEntry is one grouped query's ORDER BY ... LIMIT measurement: the
// top-5 variant's total simulated seconds on each placement (cpu heap/merge,
// single-GPU radix, 4-GPU fleet sorted-run merge, balanced hybrid).
type sortEntry struct {
	Query         string  `json:"query"`
	CPUSeconds    float64 `json:"cpu_seconds"`
	GPUSeconds    float64 `json:"gpu_seconds"`
	FleetSeconds  float64 `json:"fleet_seconds"`
	HybridSeconds float64 `json:"hybrid_seconds"`
}

// sortBaseline is the checked-in ORDER BY baseline document.
type sortBaseline struct {
	Rows         int         `json:"rows"`
	FleetGPUs    int         `json:"fleet_gpus"`
	Limit        int         `json:"limit"`
	Partitions   int         `json:"partitions"`
	TolerancePct float64     `json:"tolerance_pct"`
	Queries      []sortEntry `json:"queries"`
}

// sortFleetGPUs is the device count of the fleet arm of the sort baseline:
// enough shards that the sorted-run merge is a real k-way merge.
const sortFleetGPUs = 4

// measureSort times top-5 ORDER BY variants of one grouped query per SSB
// flight (ORDER BY the aggregate descending, then the first group column)
// on every placement, through the same unified scheduler as the other
// baselines.
func measureSort(ds *ssb.Dataset) (sortBaseline, error) {
	out := sortBaseline{
		Rows: ds.Lineorder.Rows(), FleetGPUs: sortFleetGPUs, Limit: 5,
		Partitions: hybridPartitions, TolerancePct: tolerance * 100,
	}
	for _, id := range []string{"q2.1", "q3.1", "q4.1"} {
		q, err := queries.ByID(id)
		if err != nil {
			return out, err
		}
		q.OrderBy = []queries.OrderKey{{Item: 0, Desc: true}, {Item: -1, Group: 0}}
		q.Limit = out.Limit
		plan := queries.Compile(ds, q)
		entry := sortEntry{Query: id}
		for _, m := range []struct {
			placement string
			out       *float64
		}{{queries.PlacementCPU, &entry.CPUSeconds}, {queries.PlacementGPU, &entry.GPUSeconds}, {queries.PlacementHybrid, &entry.HybridSeconds}} {
			if *m.out, err = shapeSeconds(plan, placementShape(m.placement, fleet.NVLink())); err != nil {
				return out, err
			}
		}
		fleetShape := queries.Shape{Engine: queries.EngineGPU, GPUs: sortFleetGPUs, Link: fleet.NVLink().Name, Partitions: hybridPartitions}
		if entry.FleetSeconds, err = shapeSeconds(plan, fleetShape); err != nil {
			return out, err
		}
		out.Queries = append(out.Queries, entry)
	}
	return out, nil
}

func main() {
	flag.Parse()
	if *flagWrite == *flagCheck {
		fmt.Fprintln(os.Stderr, "benchgate: pass exactly one of -write or -check")
		os.Exit(2)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run() error {
	if *flagCheck {
		return check()
	}
	ds := ssb.GenerateRows(*flagRows)
	curFleet, err := measureFleet(ds)
	if err != nil {
		return err
	}
	if err := writeJSON(*flagFile, curFleet); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows, %s):\n", *flagFile, curFleet.Rows, curFleet.Interconnect)
	printEntries(curFleet.Fleet)
	curHybrid, err := measureHybrid(ds)
	if err != nil {
		return err
	}
	if err := writeJSON(*flagHybridFile, curHybrid); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows, %d morsels):\n", *flagHybridFile, curHybrid.Rows, curHybrid.Partitions)
	printHybrid(curHybrid.Links)
	curSort, err := measureSort(ds)
	if err != nil {
		return err
	}
	if err := writeJSON(*flagSortFile, curSort); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows, top-%d, %d-GPU fleet):\n", *flagSortFile, curSort.Rows, curSort.Limit, curSort.FleetGPUs)
	printSort(curSort.Queries)
	curServe, err := measureServe()
	if err != nil {
		return err
	}
	if err := writeJSON(*flagServeFile, curServe); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows, %d workers, queue %d):\n",
		*flagServeFile, curServe.Rows, curServe.Workers, curServe.QueueDepth)
	printServe(curServe)
	curBatch, err := measureBatch()
	if err != nil {
		return err
	}
	if err := writeJSON(*flagBatchFile, curBatch); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows, %d morsels):\n", *flagBatchFile, curBatch.Rows, curBatch.Partitions)
	printBatch(curBatch)
	return nil
}

func check() error {
	data, err := os.ReadFile(*flagFile)
	if err != nil {
		return fmt.Errorf("reading baseline (run `make bench-baseline` first): %w", err)
	}
	var base gateBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *flagFile, err)
	}
	hdata, err := os.ReadFile(*flagHybridFile)
	if err != nil {
		return fmt.Errorf("reading hybrid baseline (run `make bench-baseline` first): %w", err)
	}
	var hbase hybridBaseline
	if err := json.Unmarshal(hdata, &hbase); err != nil {
		return fmt.Errorf("parsing %s: %w", *flagHybridFile, err)
	}
	if hbase.Rows != base.Rows {
		return fmt.Errorf("baseline row counts disagree (%d fleet vs %d hybrid); re-baseline", base.Rows, hbase.Rows)
	}
	ds := ssb.GenerateRows(base.Rows)
	cur, err := measureFleet(ds)
	if err != nil {
		return err
	}
	fmt.Printf("checking against %s (%d rows, %s, %.0f%% tolerance):\n",
		*flagFile, base.Rows, base.Interconnect, base.TolerancePct)
	printEntries(cur.Fleet)
	if len(cur.Fleet) != len(base.Fleet) {
		return fmt.Errorf("fleet sizes changed (%d vs %d entries); re-baseline", len(cur.Fleet), len(base.Fleet))
	}
	failed := false
	improved := false
	gate := func(label string, got, want float64) {
		rel := (got - want) / want
		switch {
		case rel > tolerance:
			fmt.Printf("  REGRESSION at %s: %.6fs vs baseline %.6fs (+%.1f%%)\n", label, got, want, rel*100)
			failed = true
		case rel < -tolerance:
			improved = true
		}
	}
	for i, b := range base.Fleet {
		c := cur.Fleet[i]
		if c.GPUs != b.GPUs {
			return fmt.Errorf("fleet entry %d is %d GPUs, baseline has %d; re-baseline", i, c.GPUs, b.GPUs)
		}
		gate(fmt.Sprintf("%d GPU(s)", c.GPUs), c.FlightSeconds, b.FlightSeconds)
	}
	curH, err := measureHybrid(ds)
	if err != nil {
		return err
	}
	fmt.Printf("checking against %s (%d rows, %d morsels, %.0f%% tolerance):\n",
		*flagHybridFile, hbase.Rows, hbase.Partitions, hbase.TolerancePct)
	printHybrid(curH.Links)
	if len(curH.Links) != len(hbase.Links) {
		return fmt.Errorf("interconnect set changed (%d vs %d entries); re-baseline", len(curH.Links), len(hbase.Links))
	}
	for i, b := range hbase.Links {
		c := curH.Links[i]
		if c.Interconnect != b.Interconnect {
			return fmt.Errorf("link entry %d is %s, baseline has %s; re-baseline", i, c.Interconnect, b.Interconnect)
		}
		gate(c.Interconnect+" cpu placement", c.CPUSeconds, b.CPUSeconds)
		gate(c.Interconnect+" gpu placement", c.GPUSeconds, b.GPUSeconds)
		gate(c.Interconnect+" hybrid placement", c.HybridSeconds, b.HybridSeconds)
	}
	sdata0, err := os.ReadFile(*flagSortFile)
	if err != nil {
		return fmt.Errorf("reading sort baseline (run `make bench-baseline` first): %w", err)
	}
	var sortBase sortBaseline
	if err := json.Unmarshal(sdata0, &sortBase); err != nil {
		return fmt.Errorf("parsing %s: %w", *flagSortFile, err)
	}
	if sortBase.Rows != base.Rows {
		return fmt.Errorf("baseline row counts disagree (%d fleet vs %d sort); re-baseline", base.Rows, sortBase.Rows)
	}
	curSort, err := measureSort(ds)
	if err != nil {
		return err
	}
	fmt.Printf("checking against %s (%d rows, top-%d, %d-GPU fleet, %.0f%% tolerance):\n",
		*flagSortFile, sortBase.Rows, sortBase.Limit, sortBase.FleetGPUs, sortBase.TolerancePct)
	printSort(curSort.Queries)
	if len(curSort.Queries) != len(sortBase.Queries) {
		return fmt.Errorf("sort query set changed (%d vs %d entries); re-baseline", len(curSort.Queries), len(sortBase.Queries))
	}
	for i, b := range sortBase.Queries {
		c := curSort.Queries[i]
		if c.Query != b.Query {
			return fmt.Errorf("sort entry %d is %s, baseline has %s; re-baseline", i, c.Query, b.Query)
		}
		gate(c.Query+" ordered cpu", c.CPUSeconds, b.CPUSeconds)
		gate(c.Query+" ordered gpu", c.GPUSeconds, b.GPUSeconds)
		gate(c.Query+" ordered fleet", c.FleetSeconds, b.FleetSeconds)
		gate(c.Query+" ordered hybrid", c.HybridSeconds, b.HybridSeconds)
	}
	if failed {
		return fmt.Errorf("q1.x flight regressed more than %.0f%% — investigate, or re-run `make bench-baseline` for an intentional model change", tolerance*100)
	}
	if improved {
		fmt.Println("improved more than 5% on some fleet size or placement: consider `make bench-baseline` to lock it in")
	}
	sdata, err := os.ReadFile(*flagServeFile)
	if err != nil {
		return fmt.Errorf("reading serving baseline (run `make bench-baseline` first): %w", err)
	}
	var sbase serveBaseline
	if err := json.Unmarshal(sdata, &sbase); err != nil {
		return fmt.Errorf("parsing %s: %w", *flagServeFile, err)
	}
	curServe, err := measureServe()
	if err != nil {
		return err
	}
	fmt.Printf("checking %s overload invariants (%d rows, %d workers, queue %d; wall-clock values informational):\n",
		*flagServeFile, curServe.Rows, curServe.Workers, curServe.QueueDepth)
	printServe(curServe)
	if err := checkServe(sbase, curServe); err != nil {
		return err
	}
	bdata, err := os.ReadFile(*flagBatchFile)
	if err != nil {
		return fmt.Errorf("reading batch baseline (run `make bench-baseline` first): %w", err)
	}
	var bbase batchBaseline
	if err := json.Unmarshal(bdata, &bbase); err != nil {
		return fmt.Errorf("parsing %s: %w", *flagBatchFile, err)
	}
	curBatch, err := measureBatch()
	if err != nil {
		return err
	}
	fmt.Printf("checking %s shared-scan batching invariants (%d rows, %d morsels):\n",
		*flagBatchFile, curBatch.Rows, curBatch.Partitions)
	printBatch(curBatch)
	if err := checkBatch(bbase, curBatch); err != nil {
		return err
	}
	fmt.Println("bench gate passed")
	return nil
}

func printEntries(es []gateEntry) {
	for _, e := range es {
		fmt.Printf("  %2d GPU(s): flight %.6fs  %5.2fx speedup  %3.0f%% efficiency\n",
			e.GPUs, e.FlightSeconds, e.Speedup, e.Efficiency*100)
	}
}

func printHybrid(es []hybridEntry) {
	for _, e := range es {
		fmt.Printf("  %-6s cpu %.6fs  gpu %.6fs  hybrid %.6fs\n",
			e.Interconnect, e.CPUSeconds, e.GPUSeconds, e.HybridSeconds)
	}
}

func printSort(es []sortEntry) {
	for _, e := range es {
		fmt.Printf("  %-5s cpu %.6fs  gpu %.6fs  fleet %.6fs  hybrid %.6fs\n",
			e.Query, e.CPUSeconds, e.GPUSeconds, e.FleetSeconds, e.HybridSeconds)
	}
}
