package queries

import (
	"fmt"
	"testing"

	"crystal/internal/queries/queriestest"
	"crystal/internal/ssb"
)

// testPacked is the packed encoding of the shared test dataset, built once.
var testPacked = testDS.Pack()

// TestPackedRowIdentityCatalog is the core guarantee of compressed
// execution: for every catalog query and every engine, scanning the
// bit-packed fact encoding returns rows identical to the plain run — the
// engines decode values through the encoding, so this pins the pack →
// unpack round trip across the full pipeline.
func TestPackedRowIdentityCatalog(t *testing.T) {
	for _, q := range All() {
		plan := Compile(testDS, q)
		for _, e := range Engines() {
			plain := plan.Run(e)
			packed := runEngine(plan, e, RunOptions{Partition: PartitionOptions{Packed: testPacked}})
			queriestest.SameRows(t, fmt.Sprintf("%s/%s packed", e, q.ID), packed, plain)
			if !packed.Packed {
				t.Errorf("%s/%s: result not marked packed", e, q.ID)
			}
			if plain.Packed {
				t.Errorf("%s/%s: plain result marked packed", e, q.ID)
			}
		}
	}
}

// TestPartitionInvariancePacked extends the partition-invariance guarantee
// to compressed execution: packed partitioned runs return rows AND simulated
// seconds identical to the monolithic packed run at every partition count.
// Frames are line-aligned and morsels cover whole frames, so the packed
// traffic statistics merge exactly — float-for-float, like the plain runs.
func TestPartitionInvariancePacked(t *testing.T) {
	for _, q := range All() {
		plan := Compile(testDS, q)
		for _, e := range Engines() {
			base := runEngine(plan, e, RunOptions{Partition: PartitionOptions{Packed: testPacked}})
			for _, n := range partitionCounts {
				res := runEngine(plan, e, RunOptions{Partition: PartitionOptions{Partitions: n, Packed: testPacked}})
				queriestest.SameRun(t, fmt.Sprintf("%s/%s packed at %d partitions", e, q.ID, n), res, base)
				if res.Pruned != 0 {
					t.Errorf("%s/%s: pruned %d morsels on uniform data", e, q.ID, res.Pruned)
				}
			}
		}
	}
}

// TestPackedAsymmetry pins the Section 5.5 prediction the compressed path
// models: the GPU's compute-to-bandwidth headroom turns the traffic saving
// into runtime (packed strictly faster), while the CPU pays per-element
// unpack arithmetic that eats the saving — its packed gain must be strictly
// smaller than the GPU's.
func TestPackedAsymmetry(t *testing.T) {
	q, _ := ByID("q1.1") // scan-dominated: the compression effect is purest
	plan := Compile(testDS, q)
	gpuPlain := plan.Run(EngineGPU).Seconds
	gpuPacked := runEngine(plan, EngineGPU, RunOptions{Partition: PartitionOptions{Packed: testPacked}}).Seconds
	cpuPlain := plan.Run(EngineCPU).Seconds
	cpuPacked := runEngine(plan, EngineCPU, RunOptions{Partition: PartitionOptions{Packed: testPacked}}).Seconds

	if gpuPacked >= gpuPlain {
		t.Errorf("GPU packed scan not faster: %.9f >= %.9f", gpuPacked, gpuPlain)
	}
	gpuGain := gpuPlain / gpuPacked
	cpuGain := cpuPlain / cpuPacked
	if cpuGain >= gpuGain {
		t.Errorf("CPU gained as much as GPU from packing (%.3fx vs %.3fx); the asymmetry is lost", cpuGain, gpuGain)
	}
}

// TestPackedCoprocessorTransfer is the acceptance demonstration for the
// transfer side: on a transfer-bound query the coprocessor ships compressed
// bytes, so packed execution is strictly faster than plain — and with every
// referenced column device-resident the transfer disappears entirely,
// faster still.
func TestPackedCoprocessorTransfer(t *testing.T) {
	q, _ := ByID("q1.1") // no joins: transfer is pure fact-column traffic
	plan := Compile(testDS, q)
	plain := runEngine(plan, EngineCoproc, RunOptions{})
	packed := runEngine(plan, EngineCoproc, RunOptions{Partition: PartitionOptions{Packed: testPacked}})
	if packed.TransferBytes >= plain.TransferBytes {
		t.Fatalf("packed transfer not smaller: %d >= %d bytes", packed.TransferBytes, plain.TransferBytes)
	}
	if packed.Seconds >= plain.Seconds {
		t.Errorf("packed coprocessor not faster: %.9f >= %.9f", packed.Seconds, plain.Seconds)
	}

	// A residency cache that refuses admission degrades to exactly the
	// cold packed transfer — never worse than running without the cache.
	refused := runEngine(plan, EngineCoproc, RunOptions{Partition: PartitionOptions{Packed: testPacked, Residency: refuseAll{}}})
	if refused.TransferBytes != packed.TransferBytes || refused.Seconds != packed.Seconds {
		t.Errorf("refused admission shipped %d bytes (%.9fs), cacheless packed ships %d (%.9fs)",
			refused.TransferBytes, refused.Seconds, packed.TransferBytes, packed.Seconds)
	}

	// An admitted miss ships (and pins) whole columns: unpruned, exactly the
	// cold packed transfer.
	admitted := runEngine(plan, EngineCoproc, RunOptions{Partition: PartitionOptions{Packed: testPacked, Residency: coldAdmit{}}})
	if admitted.TransferBytes != packed.TransferBytes || admitted.Seconds != packed.Seconds {
		t.Errorf("admitted miss shipped %d bytes (%.9fs), cacheless packed ships %d (%.9fs)",
			admitted.TransferBytes, admitted.Seconds, packed.TransferBytes, packed.Seconds)
	}

	warm := runEngine(plan, EngineCoproc, RunOptions{Partition: PartitionOptions{Packed: testPacked, Residency: residentAll{}}})
	if warm.ResidentCols == 0 {
		t.Fatal("warm run reported no resident columns")
	}
	if warm.TransferBytes != 0 {
		t.Errorf("fully resident q1.1 still shipped %d bytes", warm.TransferBytes)
	}
	if warm.Seconds >= packed.Seconds {
		t.Errorf("warm residency hit not faster than cold packed: %.9f >= %.9f", warm.Seconds, packed.Seconds)
	}
	if !warm.Equal(plain) {
		t.Error("residency cache changed the rows")
	}
}

// residentAll is a Residency stub with every column already on the device.
type residentAll struct{}

func (residentAll) Acquire(string, int64) (bool, bool) { return true, true }

// refuseAll is a Residency stub that never holds nor admits anything — the
// degraded mode of a cache too small for the working set.
type refuseAll struct{}

func (refuseAll) Acquire(string, int64) (bool, bool) { return false, false }

// TestPackedZonePruning checks the packed path composes with zone-map
// pruning: on a clustered layout the packed partitioned run prunes morsels,
// keeps rows identical, and is strictly cheaper than the monolithic packed
// run.
func TestPackedZonePruning(t *testing.T) {
	clustered := testDS.ClusterBy("orderdate")
	pf := clustered.Pack()
	q, _ := ByID("q1.1")
	plan := Compile(clustered, q)
	for _, e := range []Engine{EngineGPU, EngineCPU, EngineCoproc} {
		base := runEngine(plan, e, RunOptions{Partition: PartitionOptions{Packed: pf}})
		res := runEngine(plan, e, RunOptions{Partition: PartitionOptions{Partitions: 64, Packed: pf}})
		if res.Pruned == 0 {
			t.Fatalf("%s: no morsels pruned on clustered packed layout", e)
		}
		if !res.Equal(base) {
			t.Errorf("%s: pruning changed packed rows", e)
		}
		if res.Seconds >= base.Seconds {
			t.Errorf("%s: packed pruning not cheaper: %.9f >= %.9f", e, res.Seconds, base.Seconds)
		}
	}
	// A clustered orderdate column packs far below its uniform width: each
	// frame spans a narrow date range, which is exactly the per-morsel-width
	// payoff of frame-of-reference encoding.
	uniform := testPacked.Col("orderdate").Bytes()
	if clusteredBytes := pf.Col("orderdate").Bytes(); clusteredBytes >= uniform {
		t.Errorf("clustering did not shrink the packed sort column: %d >= %d", clusteredBytes, uniform)
	}
}

// TestPackedMismatchedEncodingPanics pins the guard against running a plan
// with an encoding built for a different fact layout.
func TestPackedMismatchedEncodingPanics(t *testing.T) {
	small := ssb.GenerateRows(4096)
	q, _ := ByID("q1.1")
	plan := Compile(small, q)
	defer func() {
		if recover() == nil {
			t.Error("mismatched packed encoding did not panic")
		}
	}()
	runEngine(plan, EngineCPU, RunOptions{Partition: PartitionOptions{Packed: testPacked}})
}
