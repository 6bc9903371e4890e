package planner

import (
	"testing"

	"crystal/internal/crystal"
	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/queries"
	"crystal/internal/ssb"
)

var ds = ssb.GenerateRows(100_000)

// TestScanCostPackedAsymmetry pins the scheduler-facing verdict of Section
// 5.5: the packed filter scan is strictly cheaper than plain on the GPU
// (bandwidth bound, traffic shrinks) and strictly more expensive on this
// CPU (the per-element unpack arithmetic tips it compute bound).
func TestScanCostPackedAsymmetry(t *testing.T) {
	pf := ds.Pack()
	rows := int64(ds.Lineorder.Rows())
	cols := []string{"orderdate", "discount", "quantity"} // q1.1's filters
	gpuPlain := ScanCost(device.V100(), rows, len(cols))
	gpuPacked := ScanCostPacked(device.V100(), pf, rows, cols)
	if gpuPacked >= gpuPlain {
		t.Errorf("GPU packed scan not cheaper: %.9f >= %.9f", gpuPacked, gpuPlain)
	}
	cpuPlain := ScanCost(device.I76900(), rows, len(cols))
	cpuPacked := ScanCostPacked(device.I76900(), pf, rows, cols)
	if cpuPacked <= cpuPlain {
		t.Errorf("CPU packed scan should tip compute bound: %.9f <= %.9f", cpuPacked, cpuPlain)
	}
	// Degenerate inputs cost nothing.
	if ScanCostPacked(device.V100(), pf, 0, cols) != 0 || ScanCostPacked(device.V100(), pf, rows, nil) != 0 {
		t.Error("degenerate packed scans should be free")
	}
	// Fewer scanned rows (zone pruning) can only get cheaper.
	if half := ScanCostPacked(device.V100(), pf, rows/2, cols); half >= gpuPacked {
		t.Errorf("pruned packed scan not cheaper: %.9f >= %.9f", half, gpuPacked)
	}
}

// TestTransferCost pins the resident-vs-cold pricing: residency only ever
// shrinks the PCIe term, a fully resident working set is free, and
// residentBytes clamps so the cost never goes negative.
func TestTransferCost(t *testing.T) {
	cold := TransferCost(1<<30, 0)
	if cold != device.TransferTime(1<<30) {
		t.Errorf("cold transfer = %.9f, want raw PCIe time", cold)
	}
	warm := TransferCost(1<<30, 1<<29)
	if warm >= cold || warm <= 0 {
		t.Errorf("half-resident transfer = %.9f, cold %.9f", warm, cold)
	}
	if TransferCost(1<<30, 1<<30) != 0 {
		t.Error("fully resident transfer should be free")
	}
	if got := TransferCost(100, 200); got != 0 {
		t.Errorf("over-resident transfer = %.9f, want clamped 0", got)
	}
}

func TestStatsSelectivities(t *testing.T) {
	q, err := queries.ByID("q2.1")
	if err != nil {
		t.Fatal(err)
	}
	stats := Stats(ds, q)
	if len(stats) != 3 {
		t.Fatalf("stats = %d", len(stats))
	}
	// supplier region filter ~1/5; part category ~1/25; date unfiltered.
	if s := stats[0].Selectivity; s < 0.15 || s > 0.25 {
		t.Errorf("supplier selectivity = %.3f", s)
	}
	if s := stats[1].Selectivity; s < 0.02 || s > 0.06 {
		t.Errorf("part selectivity = %.3f", s)
	}
	if s := stats[2].Selectivity; s != 1.0 {
		t.Errorf("date selectivity = %.3f, want 1", s)
	}
	if stats[1].HTBytes <= stats[2].HTBytes {
		t.Error("part table should dwarf date table")
	}
}

// TestStatsFootprintIsTheBuiltTable: Stats prices each join's table by the
// executor's own capacity rule (queries.JoinTableBytes, which the queries
// tests pin to every built table's Bytes). On a dataset whose supplier
// dimension is empty that is the two-slot table Compile builds, not one
// slot, and a join without filters keeps every row.
func TestStatsFootprintIsTheBuiltTable(t *testing.T) {
	empty := ssb.GenerateRows(4096)
	empty.Supplier = ssb.Dim{Name: "supplier", Attrs: map[string][]int32{"region": {}, "nation": {}, "city": {}}}
	q := queries.Query{ID: "empty", Agg: queries.AggSumRevenue, Joins: []queries.JoinSpec{
		{Dim: "supplier", FactFK: "suppkey", Filters: []queries.Filter{{Col: "region", Lo: 1, Hi: 1}}, Payload: "nation"},
		{Dim: "part", FactFK: "partkey"},
	}}
	stats := Stats(empty, q)
	for _, js := range stats {
		if want := queries.JoinTableBytes(queries.DimTable(empty, js.Spec.Dim), js.Spec); js.HTBytes != want {
			t.Errorf("%s: Stats prices %d B, the executor builds %d B", js.Spec.Dim, js.HTBytes, want)
		}
	}
	// An empty table has two slots at any fill.
	if want := crystal.NewHashTable(0, 0.5, true).Bytes(); stats[0].HTBytes != want {
		t.Errorf("empty supplier priced at %d B, NewHashTable builds %d B", stats[0].HTBytes, want)
	}
	if stats[0].Selectivity != 1 || stats[1].Selectivity != 1 || stats[1].DimRows != int64(empty.Part.Rows()) {
		t.Errorf("selectivities %v / %v over %d part rows, want 1 / 1 over %d",
			stats[0].Selectivity, stats[1].Selectivity, stats[1].DimRows, empty.Part.Rows())
	}
}

func TestChooseOrdersPlansByCost(t *testing.T) {
	q, _ := queries.ByID("q2.1")
	plans := Choose(device.I76900(), ds, q)
	if len(plans) != 6 { // 3! permutations
		t.Fatalf("plans = %d, want 6", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].Seconds < plans[i-1].Seconds {
			t.Fatal("plans not sorted by cost")
		}
	}
	if plans[0].Describe() == "" {
		t.Error("empty plan description")
	}
}

func TestBestPlanPutsSelectiveJoinsEarly(t *testing.T) {
	// A selective join placed first shrinks every later probe count; the
	// cheapest plan must not start with the unfiltered date join.
	q, _ := queries.ByID("q2.1")
	for _, dev := range []*device.Spec{device.V100(), device.I76900()} {
		best := Choose(dev, ds, q)[0]
		if best.Order[0].Dim == "date" {
			t.Errorf("%s: best plan starts with the unfiltered date join: %s", dev.Name, best.Describe())
		}
	}
}

func TestOptimizePreservesResults(t *testing.T) {
	// Optimizing may permute group-key order, so compare decoded group
	// multisets: the total and the number of groups must be identical.
	q, _ := queries.ByID("q2.1")
	opt := Optimize(device.V100(), ds, q)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	a := queries.Compile(ds, q).Run(queries.EngineGPU)
	b := queries.Compile(ds, opt).Run(queries.EngineGPU)
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("optimized plan changed group count: %d vs %d", len(a.Groups), len(b.Groups))
	}
	var ta, tb int64
	for _, v := range a.Groups {
		ta += v
	}
	for _, v := range b.Groups {
		tb += v
	}
	if ta != tb {
		t.Fatalf("optimized plan changed aggregate total: %d vs %d", ta, tb)
	}
}

func TestOptimizedPlanNotSlower(t *testing.T) {
	// The engine's simulated time under the optimizer's order must be no
	// worse than the hand-written order (they share the cost model).
	for _, id := range []string{"q2.1", "q3.1", "q4.1", "q4.3"} {
		q, _ := queries.ByID(id)
		opt := Optimize(device.I76900(), ds, q)
		hand := queries.Compile(ds, q).Run(queries.EngineCPU).Seconds
		chosen := queries.Compile(ds, opt).Run(queries.EngineCPU).Seconds
		if chosen > hand*1.02 {
			t.Errorf("%s: optimizer picked a slower plan: %.6f vs %.6f", id, chosen, hand)
		}
	}
}

func TestNoJoinQuery(t *testing.T) {
	q, _ := queries.ByID("q1.1")
	plans := Choose(device.V100(), ds, q)
	if len(plans) != 1 || len(plans[0].Order) != 0 {
		t.Fatalf("no-join query should have one empty plan, got %d", len(plans))
	}
	opt := Optimize(device.V100(), ds, q)
	if len(opt.Joins) != 0 {
		t.Error("optimize changed a no-join query")
	}
}

// TestOptimizeGroupedPreservesPayloadOrder checks the SQL-frontend variant
// of the optimizer: payload-carrying joins keep their relative order (the
// packed group-key layout), the result rows are bit-identical to the
// unoptimized query's, and the chosen plan is the cheapest that qualifies.
func TestOptimizeGroupedPreservesPayloadOrder(t *testing.T) {
	for _, id := range []string{"q2.1", "q3.1", "q4.1", "q4.2", "q4.3"} {
		q, _ := queries.ByID(id)
		for _, dev := range []*device.Spec{device.V100(), device.I76900()} {
			opt := OptimizeGrouped(dev, ds, q)
			var want, got []string
			for _, j := range q.Joins {
				if j.Payload != "" {
					want = append(want, j.Dim+"."+j.Payload)
				}
			}
			for _, j := range opt.Joins {
				if j.Payload != "" {
					got = append(got, j.Dim+"."+j.Payload)
				}
			}
			if len(want) != len(got) {
				t.Fatalf("%s on %s: payload joins lost: %v vs %v", id, dev.Name, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Errorf("%s on %s: payload order changed: %v vs %v", id, dev.Name, got, want)
				}
			}
			a := queries.Reference(ds, q)
			b := queries.Reference(ds, opt)
			if !a.Equal(b) {
				t.Errorf("%s on %s: grouped optimization changed the result rows", id, dev.Name)
			}
		}
	}
	// q1.x: no joins, the optimizer must be an identity.
	q, _ := queries.ByID("q1.2")
	if opt := OptimizeGrouped(device.V100(), ds, q); len(opt.Joins) != 0 {
		t.Error("OptimizeGrouped changed a no-join query")
	}
}

// TestPruneEstimateAndPartitionedCost: on the uniform layout zone maps
// prune nothing and partitioned plans cost exactly the monolithic ones; on
// a clustered layout the selective q1.1 date flight prunes most morsels and
// every plan gets strictly cheaper; a plan over no rows costs its launch.
func TestPruneEstimateAndPartitionedCost(t *testing.T) {
	q21, _ := queries.ByID("q2.1")
	uniform := ds.Partition(32)
	pr := PruneEstimate(uniform, q21)
	if pr.Morsels != 32 || pr.Pruned != 0 || pr.ScannedRows != int64(ds.Lineorder.Rows()) {
		t.Fatalf("uniform pruning = %+v", pr)
	}
	a := Choose(device.V100(), ds, q21)
	b := ChoosePartitioned(device.V100(), ds, q21, uniform)
	if len(a) != len(b) {
		t.Fatalf("plan counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seconds != b[i].Seconds {
			t.Errorf("plan %d: unpruned partitioned cost %.9f != monolithic %.9f", i, b[i].Seconds, a[i].Seconds)
		}
	}

	clustered := ds.ClusterBy("orderdate")
	q11, _ := queries.ByID("q1.1")
	morsels := clustered.Partition(64)
	pr = PruneEstimate(morsels, q11)
	if pr.Pruned == 0 {
		t.Fatal("clustered q1.1 should prune morsels")
	}
	if pr.ScannedRows >= int64(clustered.Lineorder.Rows()) {
		t.Fatal("pruning did not shrink the scan")
	}
	// With every morsel pruned no row reaches the joins, and the plan
	// prices the launch alone.
	for _, dev := range []*device.Spec{device.V100(), device.I76900()} {
		if got, want := Cost(dev, 0, Stats(ds, q21)), Cost(dev, 0, nil); got != want {
			t.Errorf("%s: zero-row plan costs %v, the launch alone %v", dev.Name, got, want)
		}
	}
	mono := Choose(device.V100(), clustered, q11)[0].Seconds
	part := ChoosePartitioned(device.V100(), clustered, q11, morsels)[0].Seconds
	if part >= mono {
		t.Errorf("pruned plan cost %.9f not below monolithic %.9f", part, mono)
	}
}

// TestFleetCostScaling pins the fleet model's shape: more devices price
// cheaper on a scan-bound query (near-linear until overheads dominate),
// and the estimate carries per-device entries for the whole fleet.
func TestFleetCostScaling(t *testing.T) {
	q, err := queries.ByID("q1.1")
	if err != nil {
		t.Fatal(err)
	}
	morsels := ds.Partition(32)
	prev := 0.0
	for _, gpus := range []int{1, 2, 4, 8} {
		est, err := FleetCost(fleet.Spec{GPUs: gpus, Link: fleet.NVLink()}, ds, q, morsels, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(est.DeviceSeconds) != gpus {
			t.Fatalf("%d GPUs: %d device estimates", gpus, len(est.DeviceSeconds))
		}
		if est.Seconds <= 0 {
			t.Fatalf("%d GPUs: non-positive estimate", gpus)
		}
		if prev != 0 && est.Seconds >= prev {
			t.Errorf("%d GPUs (%.9fs) not cheaper than fewer (%.9fs)", gpus, est.Seconds, prev)
		}
		prev = est.Seconds
	}
	if _, err := FleetCost(fleet.Spec{GPUs: 0}, ds, q, morsels, nil); err == nil {
		t.Error("0-GPU fleet accepted")
	}
}

// TestFleetCostMergeAndSpill pins the two interconnect terms: the merge
// grows with group cardinality and prices higher on the slower link, and
// shards that exceed device memory add spill traffic that degrades (but
// never corrupts) the estimate.
func TestFleetCostMergeAndSpill(t *testing.T) {
	grouped, err := queries.ByID("q2.2")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := queries.ByID("q1.1")
	if err != nil {
		t.Fatal(err)
	}
	morsels := ds.Partition(32)

	nv, err := FleetCost(fleet.Spec{GPUs: 4, Link: fleet.NVLink()}, ds, grouped, morsels, nil)
	if err != nil {
		t.Fatal(err)
	}
	pcie, err := FleetCost(fleet.Spec{GPUs: 4, Link: fleet.PCIe()}, ds, grouped, morsels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nv.MergeBytes != pcie.MergeBytes {
		t.Errorf("link changed merge bytes: %d vs %d", nv.MergeBytes, pcie.MergeBytes)
	}
	if pcie.MergeSeconds <= nv.MergeSeconds {
		t.Errorf("PCIe merge (%.12fs) not pricier than NVLink (%.12fs)", pcie.MergeSeconds, nv.MergeSeconds)
	}
	scanEst, err := FleetCost(fleet.Spec{GPUs: 4, Link: fleet.NVLink()}, ds, scan, morsels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scanEst.MergeBytes >= nv.MergeBytes {
		t.Errorf("global aggregate merge (%d bytes) should be below the grouped merge (%d)",
			scanEst.MergeBytes, nv.MergeBytes)
	}

	// Zero-memory devices spill everything; the estimate degrades but stays
	// finite and keeps per-device entries.
	tinyDev := device.V100()
	tinyDev.MemoryBytes = 0
	spilled, err := FleetCost(fleet.Spec{GPUs: 4, Device: tinyDev, Link: fleet.PCIe()}, ds, scan, morsels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spilled.SpillBytes == 0 {
		t.Fatal("zero-memory fleet reported no spill")
	}
	fits, err := FleetCost(fleet.Spec{GPUs: 4, Link: fleet.PCIe()}, ds, scan, morsels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fits.SpillBytes != 0 {
		t.Fatal("32 GB fleet spilled at test scale")
	}
	if spilled.Seconds <= fits.Seconds {
		t.Errorf("spilled estimate (%.9fs) not above resident estimate (%.9fs)", spilled.Seconds, fits.Seconds)
	}
}

// TestFleetCostPackedPlacement pins the scheduler/executor agreement on
// packed runs: with device memory sized between the packed and the plain
// shard footprint, the plain estimate spills more than the packed one, and
// every run's estimated spill is the bytes the fleet schedule ships.
func TestFleetCostPackedPlacement(t *testing.T) {
	q, err := queries.ByID("q1.1")
	if err != nil {
		t.Fatal(err)
	}
	pf := ds.Pack()
	morsels := ds.Partition(16)

	// Plain shard bytes per device at 2 GPUs ~ rows/2 * 36; packed is
	// smaller by the compression ratio. Pick a capacity in between.
	plainShard := int64(ds.Lineorder.Rows()) / 2 * 36
	dev := device.V100()
	dev.MemoryBytes = plainShard / 2
	fl := fleet.Spec{GPUs: 2, Device: dev, Link: fleet.PCIe()}

	plain, err := FleetCost(fl, ds, q, morsels, nil)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := FleetCost(fl, ds, q, morsels, pf)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SpillBytes == 0 {
		t.Fatal("plain estimate should spill at half-shard capacity")
	}
	if packed.SpillBytes >= plain.SpillBytes {
		t.Errorf("packed estimate spills %d bytes, plain %d — packing should shrink or clear the spill",
			packed.SpillBytes, plain.SpillBytes)
	}

	// The executor must spill exactly the bytes the model prices, on this
	// device, across the catalog, morsel counts, encodings and links.
	spills := 0
	eachShipRun(dev, func(label string, plan *queries.Plan, fl fleet.Spec, opts queries.RunOptions, morsels []ssb.Morsel) {
		est, err := FleetCost(fl, ds, plan.Query, morsels, opts.Partition.Packed)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := runFleet(plan, fl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Result.TransferBytes != est.SpillBytes {
			t.Errorf("%s: engine spilled %d bytes, model prices %d", label, fr.Result.TransferBytes, est.SpillBytes)
		}
		if est.SpillBytes > 0 {
			spills++
		}
	})
	if spills == 0 {
		t.Error("no run spills at half-shard capacity")
	}
}
