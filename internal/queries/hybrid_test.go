package queries

import (
	"fmt"
	"testing"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/queries/queriestest"
	"crystal/internal/sched"
)

// TestHybridInvarianceCatalog extends the fleet invariance guarantee to
// hybrid schedules: all 13 catalog queries × {1,2,4} GPU arms × both
// interconnects × {plain, packed} × a sweep of CPU fractions return rows
// identical to the monolithic single-device GPU run. Partial aggregates
// are disjoint integer sums, so the split point must never change a row.
func TestHybridInvarianceCatalog(t *testing.T) {
	for _, q := range All() {
		plan := Compile(testDS, q)
		want := plan.Run(EngineGPU)
		for _, gpus := range []int{1, 2, 4} {
			for _, link := range fleet.Interconnects() {
				for _, packed := range []bool{false, true} {
					for _, frac := range []float64{-1, 0, 0.3, 0.5, 1} {
						opts := RunOptions{}
						opts.Partition.Partitions = 16
						if packed {
							opts.Partition.Packed = testPacked
						}
						hr, err := runHybrid(plan, fleet.Spec{GPUs: gpus, Link: link}, frac, opts)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s/%dx%s/packed=%v/frac=%v", q.ID, gpus, link.Name, packed, frac)
						queriestest.SameRows(t, label, hr.Result, want)
						if hr.Result.Seconds <= 0 {
							t.Errorf("%s: no simulated time", label)
						}
						if hr.Result.Packed != packed {
							t.Errorf("%s: packed flag lost", label)
						}
					}
				}
			}
		}
	}
}

// TestHybridStatsSumToTotals pins the per-executor telemetry to the merged
// result: executor morsel, pruned and row counts sum exactly to the result
// totals, the CPU arm never ships or merges, and the makespan-plus-merge
// seconds identity holds.
func TestHybridStatsSumToTotals(t *testing.T) {
	q, _ := ByID("q2.1")
	plan := Compile(testDS, q)
	opts := RunOptions{}
	opts.Partition.Partitions = 16
	s, cpuFrac, err := plan.ScheduleHybrid(fleet.Spec{GPUs: 2, Link: fleet.NVLink()}, -1, opts)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := plan.RunScheduled(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.Executors) != 3 {
		t.Fatalf("%d executors, want CPU arm + 2 GPU arms", len(hr.Executors))
	}
	var morsels, pruned int
	var rows, ship int64
	var makespan float64
	kinds := map[sched.Kind]int{}
	for _, er := range hr.Executors {
		kinds[er.Kind]++
		morsels += er.Morsels
		pruned += er.Pruned
		rows += er.Rows
		ship += er.ShipBytes
		if er.Seconds > makespan {
			makespan = er.Seconds
		}
		if er.Kind == sched.KindCPU && er.ShipBytes != 0 {
			t.Errorf("CPU arm shipped %d bytes; host-resident scans are free", er.ShipBytes)
		}
	}
	if kinds[sched.KindCPU] != 1 || kinds[sched.KindGPU] != 2 {
		t.Errorf("executor kinds = %v, want 1 cpu + 2 gpu", kinds)
	}
	if morsels != hr.Result.Morsels {
		t.Errorf("executor morsels sum to %d, result says %d", morsels, hr.Result.Morsels)
	}
	if pruned != hr.Result.Pruned {
		t.Errorf("executor pruned sum to %d, result says %d", pruned, hr.Result.Pruned)
	}
	if int(rows) != testDS.Lineorder.Rows() {
		t.Errorf("executors scanned %d rows, dataset has %d", rows, testDS.Lineorder.Rows())
	}
	if ship != hr.Result.TransferBytes {
		t.Errorf("executor ship bytes sum to %d, result says %d", ship, hr.Result.TransferBytes)
	}
	if ship <= 0 {
		t.Error("GPU arms shipped nothing; hybrid models host-resident data")
	}
	if got, want := hr.Result.Seconds, makespan+hr.MergeSeconds; got != want {
		t.Errorf("seconds %.15g != makespan+merge %.15g", got, want)
	}
	if hr.MergeBytes <= 0 || hr.MergeSeconds <= 0 {
		t.Error("grouped hybrid run priced no partial-aggregate merge")
	}
	if cpuFrac <= 0 || cpuFrac >= 0.5 {
		t.Errorf("resolved CPU fraction %v outside the minority-share regime", cpuFrac)
	}
}

// TestHybridPureFractions pins the degenerate splits to the placements
// they collapse into: frac 1 is exactly the partitioned CPU run (same
// rows, same seconds — the single-assignment schedule short-circuits to
// the engine's own morsel run), and frac 0 with one GPU arm is the
// host-resident single-device run: kernel seconds bounded below by the
// shipment, plus the one-table merge.
func TestHybridPureFractions(t *testing.T) {
	q, _ := ByID("q1.1")
	plan := Compile(testDS, q)
	fl := fleet.Spec{GPUs: 1, Link: fleet.NVLink()}

	cpuOnly, err := runHybrid(plan, fl, 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	part := RunOptions{}
	part.Partition.Partitions = 2 // ScheduleHybrid raises to GPUs+1
	queriestest.SameRun(t, "frac-1 hybrid vs partitioned CPU", cpuOnly.Result,
		runEngine(plan, EngineCPU, part))
	if cpuOnly.MergeBytes != 0 {
		t.Errorf("pure-CPU hybrid priced %d merge bytes; host merges are free", cpuOnly.MergeBytes)
	}

	gpuOnly, err := runHybrid(plan, fl, 0, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRows(t, "frac-0 hybrid vs GPU engine", gpuOnly.Result, plan.Run(EngineGPU))
	if gpuOnly.Result.TransferBytes <= 0 {
		t.Error("pure-GPU hybrid shipped nothing; host-resident data must cross the link")
	}
	if minShip := fl.Link.TransferTime(gpuOnly.Result.TransferBytes); gpuOnly.Result.Seconds < minShip {
		t.Errorf("seconds %.12g below the shipment floor %.12g", gpuOnly.Result.Seconds, minShip)
	}
}

// TestHybridValidation mirrors the fleet validation: a hybrid run rejects
// impossible fleets and degrades gracefully when morsels run out.
func TestHybridValidation(t *testing.T) {
	q, _ := ByID("q1.1")
	plan := Compile(testDS, q)
	if _, err := runHybrid(plan, fleet.Spec{GPUs: -1}, -1, RunOptions{}); err == nil {
		t.Error("negative fleet accepted")
	}
	if _, err := runHybrid(plan, fleet.Spec{GPUs: fleet.MaxGPUs + 1}, -1, RunOptions{}); err == nil {
		t.Error("oversized fleet accepted")
	}
	// The schedule builders validate the fleet themselves (they are public
	// API), and RunScheduled rejects a malformed schedule outright.
	if _, _, err := plan.ScheduleHybrid(fleet.Spec{GPUs: -1}, -1, RunOptions{}); err == nil {
		t.Error("ScheduleHybrid accepted a negative fleet")
	}
	if _, err := plan.ScheduleFleet(fleet.Spec{GPUs: -1}, RunOptions{}); err == nil {
		t.Error("ScheduleFleet accepted a negative fleet")
	}
	s := plan.ScheduleEngine(EngineCPU, RunOptions{})
	s.Morsels++ // one morsel now unassigned
	if _, err := plan.RunScheduled(s); err == nil {
		t.Error("RunScheduled accepted a schedule with an unassigned morsel")
	}
	// Fractions beyond 1 clamp to the pure-CPU split.
	over, err := runHybrid(plan, fleet.Spec{GPUs: 1}, 2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pure, err := runHybrid(plan, fleet.Spec{GPUs: 1}, 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRun(t, "frac 2 vs frac 1", over.Result, pure.Result)
	if q.GroupEstimate() <= 0 {
		t.Error("group estimate not positive; schedulers price merges with it")
	}
}

// TestHybridPrunedMorselsRideCPU: on a clustered layout a selective filter
// prunes morsels, and the split policy routes every pruned morsel to the
// CPU arm — free to skip there, and the GPU arm never ships a byte for
// them. Rows still match the monolithic run.
func TestHybridPrunedMorselsRideCPU(t *testing.T) {
	clustered := testDS.ClusterBy("orderdate")
	q, _ := ByID("q1.1") // orderdate in 1993: one year of seven
	plan := Compile(clustered, q)
	opts := RunOptions{}
	opts.Partition.Partitions = 64
	hr, err := runHybrid(plan, fleet.Spec{GPUs: 2, Link: fleet.NVLink()}, -1, opts)
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRows(t, "clustered hybrid", hr.Result, plan.Run(EngineGPU))
	if hr.Result.Pruned == 0 {
		t.Fatal("no morsels pruned on clustered layout")
	}
	for _, er := range hr.Executors {
		if er.Kind == sched.KindGPU && er.Pruned != 0 {
			t.Errorf("GPU arm %d carried %d pruned morsels; they belong to the CPU arm", er.Device, er.Pruned)
		}
	}
}

// TestHybridResidency: hybrid arms consult no resident set, so a packed
// hybrid run prices the same at every capacity, and a fleet whose shards
// fit device memory spills nothing, so it has nothing to elide.
func TestHybridResidency(t *testing.T) {
	q, _ := ByID("q1.1")
	plan := Compile(testDS, q)
	opts := RunOptions{}
	opts.Partition.Partitions = 16
	opts.Partition.Packed = testPacked
	cold, err := runHybrid(plan, fleet.Spec{GPUs: 1, Link: fleet.PCIe()}, -1, opts)
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRows(t, "packed hybrid", cold.Result, plan.Run(EngineGPU))
	if cold.Result.TransferBytes <= 0 {
		t.Error("packed hybrid shipped nothing")
	}
	for _, capacity := range []int64{0, testPacked.Col(residencyOrder()[0]).Bytes(), device.V100().MemoryBytes} {
		opts.DeviceCacheBytes = capacity
		hr, err := runHybrid(plan, fleet.Spec{GPUs: 1, Link: fleet.PCIe()}, -1, opts)
		if err != nil {
			t.Fatal(err)
		}
		queriestest.SameRun(t, "hybrid with a capacity", hr.Result, cold.Result)
		if hr.Result.TransferBytes != cold.Result.TransferBytes || hr.Result.ResidentCols != 0 {
			t.Errorf("capacity %d: hybrid shipped %d bytes with %d resident cols, want %d and none",
				capacity, hr.Result.TransferBytes, hr.Result.ResidentCols, cold.Result.TransferBytes)
		}

		fr, err := runFleet(plan, fleet.Spec{GPUs: 2, Link: fleet.PCIe()},
			RunOptions{Partition: PartitionOptions{Packed: testPacked}, DeviceCacheBytes: capacity})
		if err != nil {
			t.Fatal(err)
		}
		if fr.Result.TransferBytes != 0 || fr.Result.ResidentCols != 0 {
			t.Errorf("capacity %d: resident fleet touched residency: %d bytes / %d cols",
				capacity, fr.Result.TransferBytes, fr.Result.ResidentCols)
		}
	}
}
