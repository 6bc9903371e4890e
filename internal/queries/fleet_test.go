package queries

import (
	"fmt"
	"testing"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/queries/queriestest"
	"crystal/internal/ssb"
)

// fleetShapes is the acceptance matrix: every catalog query, every fleet
// size, both interconnects, both encodings.
var fleetGPUCounts = []int{1, 2, 4, 8}

// TestFleetInvarianceCatalog is the tentpole guarantee: all 13 catalog
// queries × {1,2,4,8} GPUs × {PCIe, NVLink} × {plain, packed} return rows
// identical to the monolithic single-device GPU run. Partial aggregates
// are integer sums, so sharding at any granularity must never change a row.
func TestFleetInvarianceCatalog(t *testing.T) {
	for _, q := range All() {
		plan := Compile(testDS, q)
		want := plan.Run(EngineGPU)
		for _, gpus := range fleetGPUCounts {
			for _, link := range fleet.Interconnects() {
				for _, packed := range []bool{false, true} {
					opts := RunOptions{}
					if packed {
						opts.Partition.Packed = testPacked
					}
					fr, err := runFleet(plan, fleet.Spec{GPUs: gpus, Link: link}, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/%dx%s/packed=%v", q.ID, gpus, link.Name, packed)
					queriestest.SameRows(t, label, fr.Result, want)
					if fr.Result.Seconds <= 0 {
						t.Errorf("%s: no simulated time", label)
					}
					if fr.Result.Packed != packed {
						t.Errorf("%s: packed flag lost", label)
					}
					if len(fr.Executors) != gpus {
						t.Errorf("%s: %d device entries, want %d", label, len(fr.Executors), gpus)
					}
					var rows int64
					var morsels int
					for _, fd := range fr.Executors {
						rows += fd.Rows
						morsels += fd.Morsels
					}
					if int(rows) != testDS.Lineorder.Rows() {
						t.Errorf("%s: devices scanned %d rows, dataset has %d", label, rows, testDS.Lineorder.Rows())
					}
					if morsels != fr.Result.Morsels {
						t.Errorf("%s: device morsels sum to %d, result says %d", label, morsels, fr.Result.Morsels)
					}
					if fr.Result.TransferBytes != 0 {
						t.Errorf("%s: spill on a 32 GB device at test scale", label)
					}
				}
			}
		}
	}
}

// TestFleetOrderedInvariance extends the fleet invariance to ORDER BY:
// each device radix-sorts its shard of the groups, ships a (LIMIT-truncated)
// sorted run, and the host k-way merge must land on exactly the
// single-device order at every shard count, link, and encoding — the
// sorted-run-merge ≡ single-device-sort property.
func TestFleetOrderedInvariance(t *testing.T) {
	for _, base := range All() {
		q := base
		q.OrderBy = []OrderKey{{Item: 0, Desc: true}}
		if len(q.GroupPayloads()) > 0 {
			q.OrderBy = append(q.OrderBy, OrderKey{Item: -1, Group: 0})
			q.Limit = 5
		}
		plan := Compile(testDS, q)
		want := plan.Run(EngineGPU)
		if ref := normalizeRef(q, Reference(testDS, q)); !want.Equal(ref) {
			t.Fatalf("%s: single-GPU ordered run disagrees with the oracle", q.ID)
		}
		for _, gpus := range fleetGPUCounts {
			for _, link := range fleet.Interconnects() {
				for _, packed := range []bool{false, true} {
					opts := RunOptions{Partition: PartitionOptions{Partitions: 16}}
					if packed {
						opts.Partition.Packed = testPacked
					}
					fr, err := runFleet(plan, fleet.Spec{GPUs: gpus, Link: link}, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !fr.Result.Equal(want) {
						t.Errorf("%s/%dx%s/packed=%v: fleet sorted-run merge differs from single-device sort",
							q.ID, gpus, link.Name, packed)
					}
					if fr.Result.Seconds <= 0 {
						t.Errorf("%s/%dx%s: no simulated time", q.ID, gpus, link.Name)
					}
				}
			}
		}
	}
}

// TestFleetScanScaling pins the acceptance bar for the bandwidth model:
// under the NVLink config, every scan-bound q1.x query must speed up at
// least 1.8x going from 1 to 2 GPUs, and fleet seconds must be monotone
// non-increasing in the device count. It runs at ssbench's default scale
// (SF 2, 12M fact rows) — the regime the acceptance criterion names, where
// the shard scan dominates the per-device kernel launch.
func TestFleetScanScaling(t *testing.T) {
	ds := ssb.Generate(2)
	for _, id := range []string{"q1.1", "q1.2", "q1.3"} {
		q, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		plan := Compile(ds, q)
		counts := []int{1, 2, 4}
		secs := map[int]float64{}
		for _, gpus := range counts {
			fr, err := runFleet(plan, fleet.Spec{GPUs: gpus, Link: fleet.NVLink()}, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			secs[gpus] = fr.Result.Seconds
		}
		if speedup := secs[1] / secs[2]; speedup < 1.8 {
			t.Errorf("%s: 2-GPU NVLink speedup %.3fx, want >= 1.8x (1 GPU %.6fs, 2 GPUs %.6fs)",
				id, speedup, secs[1], secs[2])
		}
		prev := 0.0
		for _, gpus := range counts {
			if prev != 0 && secs[gpus] > prev {
				t.Errorf("%s: %d GPUs (%.9fs) slower than fewer (%.9fs)", id, gpus, secs[gpus], prev)
			}
			prev = secs[gpus]
		}
	}
}

// TestFleetMergeTerm pins the interconnect pricing of the partial-aggregate
// merge: the merge traffic grows with the number of active devices and the
// group cardinality, a scan-bound global aggregate ships exactly one
// 16-byte row per device, and the PCIe fleet is slower than the NVLink
// fleet by exactly the merge-time difference (the shards — and therefore
// the makespan — are identical).
func TestFleetMergeTerm(t *testing.T) {
	grouped, err := ByID("q2.2") // brand1 × year: a real merge payload
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(testDS, grouped)
	byGPUs := map[int]*ScheduledResult{}
	for _, gpus := range []int{2, 8} {
		fr, err := runFleet(plan, fleet.Spec{GPUs: gpus, Link: fleet.NVLink()}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		byGPUs[gpus] = fr
		if fr.MergeBytes <= 0 || fr.MergeSeconds <= 0 {
			t.Fatalf("%d GPUs: no merge term (%d bytes, %.12fs)", gpus, fr.MergeBytes, fr.MergeSeconds)
		}
	}
	if byGPUs[8].MergeBytes <= byGPUs[2].MergeBytes {
		t.Errorf("merge bytes did not grow with the fleet: %d at 8 GPUs vs %d at 2",
			byGPUs[8].MergeBytes, byGPUs[2].MergeBytes)
	}

	// Same shards over the slower link: only the merge term changes.
	pcie, err := runFleet(plan, fleet.Spec{GPUs: 8, Link: fleet.PCIe()}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nv := byGPUs[8]
	if pcie.MergeBytes != nv.MergeBytes {
		t.Fatalf("link choice changed merge bytes: %d vs %d", pcie.MergeBytes, nv.MergeBytes)
	}
	if pcie.Result.Seconds <= nv.Result.Seconds {
		t.Errorf("PCIe fleet (%.12fs) not slower than NVLink (%.12fs)", pcie.Result.Seconds, nv.Result.Seconds)
	}
	gotDiff := pcie.Result.Seconds - nv.Result.Seconds
	wantDiff := pcie.MergeSeconds - nv.MergeSeconds
	if rel := (gotDiff - wantDiff) / wantDiff; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("seconds difference %.15g is not the merge difference %.15g", gotDiff, wantDiff)
	}

	// A global aggregate ships one 16-byte partial per active device.
	scan, err := ByID("q1.1")
	if err != nil {
		t.Fatal(err)
	}
	fr, err := runFleet(Compile(testDS, scan), fleet.Spec{GPUs: 4, Link: fleet.NVLink()}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fr.MergeBytes != 4*16 {
		t.Errorf("q1.1 merge bytes = %d, want %d", fr.MergeBytes, 4*16)
	}
}

// smallV100 clones the V100 with a reduced memory capacity so test-scale
// shards spill.
func smallV100(memory int64) *device.Spec {
	d := device.V100()
	d.MemoryBytes = memory
	return d
}

// TestFleetSpill pins graceful degradation: shards that exceed device
// memory keep their rows host-resident, ship their referenced columns over
// the interconnect (packed runs ship packed bytes), and never change a
// row. A fully-spilled fleet is strictly slower than a resident one; a
// per-device residency cache elides the shipment entirely.
func TestFleetSpill(t *testing.T) {
	q, err := ByID("q1.1")
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(testDS, q)
	resident, err := runFleet(plan, fleet.Spec{GPUs: 2, Link: fleet.PCIe()}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resident.Result.TransferBytes != 0 {
		t.Fatal("32 GB devices spilled at test scale")
	}

	// Zero device memory: every morsel spills, all referenced columns ship.
	spilled, err := runFleet(plan, fleet.Spec{GPUs: 2, Device: smallV100(0), Link: fleet.PCIe()}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRows(t, "fully spilled fleet", spilled.Result, resident.Result)
	wantBytes := int64(testDS.Lineorder.Rows()) * 4 * int64(len(q.ReferencedFactColumns()))
	if spilled.Result.TransferBytes != wantBytes {
		t.Errorf("spill shipped %d bytes, want %d", spilled.Result.TransferBytes, wantBytes)
	}
	if spilled.Result.Seconds <= resident.Result.Seconds {
		t.Errorf("fully spilled fleet (%.9fs) not slower than resident (%.9fs)",
			spilled.Result.Seconds, resident.Result.Seconds)
	}
	for _, fd := range spilled.Executors {
		if fd.ShipBytes == 0 {
			t.Errorf("device %d reports no spill", fd.Device)
		}
	}

	// Partial capacity for half a shard, sharded into 16 morsels so the
	// spill boundary falls inside each shard: some morsels resident, some
	// spilled, fewer shipped bytes than the fully spilled run.
	shardBytes := int64(testDS.Lineorder.Rows()) / 2 * 36
	partial, err := runFleet(plan, fleet.Spec{GPUs: 2, Device: smallV100(shardBytes / 2), Link: fleet.PCIe()},
		RunOptions{Partition: PartitionOptions{Partitions: 16}})
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRows(t, "partially spilled fleet", partial.Result, resident.Result)
	if partial.Result.TransferBytes == 0 || partial.Result.TransferBytes >= spilled.Result.TransferBytes {
		t.Errorf("partial spill shipped %d bytes, want between 0 and %d",
			partial.Result.TransferBytes, spilled.Result.TransferBytes)
	}

	// Packed spill ships compressed bytes: strictly fewer than plain.
	packedSpill, err := runFleet(plan, fleet.Spec{GPUs: 2, Device: smallV100(0), Link: fleet.PCIe()},
		RunOptions{Partition: PartitionOptions{Packed: testPacked}})
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRows(t, "packed spilled fleet", packedSpill.Result, resident.Result)
	if packedSpill.Result.TransferBytes >= spilled.Result.TransferBytes {
		t.Errorf("packed spill shipped %d bytes, plain ships %d",
			packedSpill.Result.TransferBytes, spilled.Result.TransferBytes)
	}

	// Per-device residency caches elide the shipment; refusing caches
	// degrade to exactly the cold transfer.
	warm, err := runFleet(plan, fleet.Spec{GPUs: 2, Device: smallV100(0), Link: fleet.PCIe()},
		RunOptions{Partition: PartitionOptions{Packed: testPacked}, Fleet: FleetOptions{Residency: []Residency{residentAll{}, residentAll{}}}})
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRows(t, "warm spilled fleet", warm.Result, resident.Result)
	if warm.Result.TransferBytes != 0 {
		t.Errorf("warm fleet still shipped %d bytes", warm.Result.TransferBytes)
	}
	if warm.Result.ResidentCols == 0 {
		t.Error("warm fleet reported no resident columns")
	}
	refused, err := runFleet(plan, fleet.Spec{GPUs: 2, Device: smallV100(0), Link: fleet.PCIe()},
		RunOptions{Partition: PartitionOptions{Packed: testPacked}, Fleet: FleetOptions{Residency: []Residency{refuseAll{}, refuseAll{}}}})
	if err != nil {
		t.Fatal(err)
	}
	if refused.Result.TransferBytes != packedSpill.Result.TransferBytes ||
		refused.Result.Seconds != packedSpill.Result.Seconds {
		t.Error("refused residency differs from cacheless packed spill")
	}
}

// TestFleetValidation covers the error paths and the degenerate shapes.
func TestFleetValidation(t *testing.T) {
	q, err := ByID("q1.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runFleet(Compile(testDS, q), fleet.Spec{GPUs: 0}, RunOptions{}); err == nil {
		t.Error("0 GPUs accepted")
	}
	if _, err := runFleet(Compile(testDS, q), fleet.Spec{GPUs: fleet.MaxGPUs + 1}, RunOptions{}); err == nil {
		t.Error("oversized fleet accepted")
	}

	// A 1-GPU fleet is the partitioned single-device run plus the merge
	// shipment of its one partial-aggregate table — seconds exactly.
	plan := Compile(testDS, q)
	single := runEngine(plan, EngineGPU, RunOptions{Partition: PartitionOptions{Partitions: 1}})
	fr, err := runFleet(plan, fleet.Spec{GPUs: 1, Link: fleet.PCIe()}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRows(t, "1-GPU fleet", fr.Result, single)
	if got, want := fr.Result.Seconds, single.Seconds+fr.MergeSeconds; got != want {
		t.Errorf("1-GPU fleet seconds %.15g, want exec+merge %.15g", got, want)
	}

	// More devices than morsels: the extras idle, rows unchanged.
	tiny := ssb.GenerateRows(3)
	fr, err = runFleet(Compile(tiny, q), fleet.Spec{GPUs: 8}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRows(t, "over-sharded fleet", fr.Result, Compile(tiny, q).Run(EngineGPU))
	idle := 0
	for _, fd := range fr.Executors {
		if fd.Morsels == 0 {
			idle++
			if fd.Seconds != 0 {
				t.Errorf("idle device %d charged %.12fs", fd.Device, fd.Seconds)
			}
		}
	}
	if idle != 7 {
		t.Errorf("%d idle devices, want 7 (3 rows = one morsel)", idle)
	}
}

// TestFleetZonePruning: on a clustered layout a selective fleet run prunes
// morsels device-locally — rows unchanged, strictly cheaper than the
// unpruned fleet, and the pruned morsels neither scan nor ship.
func TestFleetZonePruning(t *testing.T) {
	clustered := testDS.ClusterBy("orderdate")
	q, err := ByID("q1.1")
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(clustered, q)
	base, err := runFleet(plan, fleet.Spec{GPUs: 4, Link: fleet.NVLink()}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := runFleet(plan, fleet.Spec{GPUs: 4, Link: fleet.NVLink()}, RunOptions{Partition: PartitionOptions{Partitions: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Result.Pruned == 0 {
		t.Fatal("no morsels pruned on the clustered layout")
	}
	queriestest.Cheaper(t, "pruned fleet", pruned.Result, base.Result)
	var devPruned int
	for _, fd := range pruned.Executors {
		devPruned += fd.Pruned
	}
	if devPruned != pruned.Result.Pruned {
		t.Errorf("device pruned counts sum to %d, result says %d", devPruned, pruned.Result.Pruned)
	}
}
