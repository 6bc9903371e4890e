package planner

import (
	"testing"

	"crystal/internal/crystal"
	"crystal/internal/device"
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
	// The optimizer may reorder joins but keeps the payload joins' order,
	// so the executed rows, group keys included, are unchanged.
	q, _ := queries.ByID("q2.1")
	opt := OptimizeGrouped(device.V100(), ds, q)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	a := queries.Compile(ds, q).Run(queries.EngineGPU)
	b := queries.Compile(ds, opt).Run(queries.EngineGPU)
	if !a.Equal(b) {
		t.Fatal("optimized plan changed the result rows")
	}
}

func TestOptimizedPlanNotSlower(t *testing.T) {
	// The engine's simulated time under the optimizer's order must be no
	// worse than the hand-written order (they share the cost model).
	for _, id := range []string{"q2.1", "q3.1", "q4.1", "q4.3"} {
		q, _ := queries.ByID(id)
		opt := OptimizeGrouped(device.I76900(), ds, q)
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
	opt := OptimizeGrouped(device.V100(), ds, q)
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
