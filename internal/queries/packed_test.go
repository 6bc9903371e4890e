package queries

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"crystal/internal/device"
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
// bytes, so packed execution is strictly faster than plain; with part of
// the referenced columns resident it ships less, and with every one
// resident (the V100's capacity) the transfer disappears entirely.
func TestPackedCoprocessorTransfer(t *testing.T) {
	q, _ := ByID("q1.1") // no joins: transfer is pure fact-column traffic
	plan := Compile(testDS, q)
	refs := q.ReferencedFactColumns()
	plain := runEngine(plan, EngineCoproc, RunOptions{})
	packed := runEngine(plan, EngineCoproc, RunOptions{Partition: PartitionOptions{Packed: testPacked}})
	if packed.TransferBytes >= plain.TransferBytes {
		t.Fatalf("packed transfer not smaller: %d >= %d bytes", packed.TransferBytes, plain.TransferBytes)
	}
	if packed.Seconds >= plain.Seconds {
		t.Errorf("packed coprocessor not faster: %.9f >= %.9f", packed.Seconds, plain.Seconds)
	}
	// Residency is of packed columns: a plain run consults nothing.
	if r := runEngine(plan, EngineCoproc, RunOptions{DeviceCacheBytes: device.V100().MemoryBytes}); r.TransferBytes != plain.TransferBytes || r.ResidentCols != 0 {
		t.Errorf("a plain run consulted the resident set: %d bytes, %d resident cols", r.TransferBytes, r.ResidentCols)
	}

	// A strict subset: room for the first column of the walk, which q1.1
	// reads, and not for the second.
	subset := testPacked.Col(residencyOrder()[0]).Bytes()
	for _, c := range []struct {
		name     string
		capacity int64
		resident int
	}{
		{"nothing resident", 0, 0},
		{"a strict subset", subset, 1},
		{"the V100's capacity", device.V100().MemoryBytes, len(refs)},
	} {
		r := runEngine(plan, EngineCoproc, RunOptions{Partition: PartitionOptions{Packed: testPacked}, DeviceCacheBytes: c.capacity})
		cols, _ := ResidentColumns(testPacked, c.capacity)
		var want int64
		for _, col := range refs {
			if !slices.Contains(cols, col) {
				want += testPacked.Col(col).Bytes() // q1.1 prunes nothing: whole columns ship
			}
		}
		if r.ResidentCols != c.resident || r.TransferBytes != want {
			t.Errorf("%s: %d resident cols, %d bytes shipped; want %d and %d",
				c.name, r.ResidentCols, r.TransferBytes, c.resident, want)
		}
		if c.resident == 0 && (r.TransferBytes != packed.TransferBytes || r.Seconds != packed.Seconds) {
			t.Errorf("%s: %d bytes (%.9fs), the packed run without a capacity ships %d (%.9fs)",
				c.name, r.TransferBytes, r.Seconds, packed.TransferBytes, packed.Seconds)
		}
		if c.resident > 0 {
			queriestest.Cheaper(t, c.name, r, packed)
		}
		queriestest.SameRows(t, c.name, r, plain)
	}
}

// TestResidentColumns pins the residency policy: a pure function of the
// encoding and the capacity that walks the columns most-referenced first,
// ties by name, keeps what fits, skips what does not and goes on, never
// exceeds the capacity, and keeps nothing at a capacity of 0 or less.
func TestResidentColumns(t *testing.T) {
	refs := map[string]int{}
	for _, q := range All() {
		for _, c := range q.ReferencedFactColumns() {
			refs[c]++
		}
	}
	size := func(c string) int64 { return testPacked.Col(c).Bytes() }

	all, total := ResidentColumns(testPacked, testPacked.Bytes())
	if len(all) != len(ssb.FactColumns()) || total != testPacked.Bytes() {
		t.Fatalf("the whole encoding's capacity kept %d of %d columns, %d of %d bytes",
			len(all), len(ssb.FactColumns()), total, testPacked.Bytes())
	}
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if refs[a] < refs[b] || refs[a] == refs[b] && a > b {
			t.Errorf("walk order: %s (%d refs) before %s (%d refs)", a, refs[a], b, refs[b])
		}
	}
	if again, _ := ResidentColumns(testPacked, testPacked.Bytes()); !slices.Equal(again, all) {
		t.Error("the same encoding and capacity gave two sets")
	}

	// Every capacity from nothing to everything, at and around each prefix
	// of the walk: never over capacity, and the bytes are the columns' sum.
	var caps []int64
	var prefix int64
	for _, c := range all {
		prefix += size(c)
		caps = append(caps, prefix-1, prefix, prefix+1)
	}
	caps = append(caps, -1, 0, 1, size(all[0])-1)
	for _, capacity := range caps {
		cols, bytes := ResidentColumns(testPacked, capacity)
		var sum int64
		for _, c := range cols {
			sum += size(c)
		}
		switch {
		case bytes != sum:
			t.Errorf("capacity %d: reported %d bytes, the columns hold %d", capacity, bytes, sum)
		case bytes > max(capacity, 0):
			t.Errorf("capacity %d: %d bytes resident", capacity, bytes)
		case capacity <= 0 && cols != nil:
			t.Errorf("capacity %d kept %v", capacity, cols)
		}
		// Greedy: any column left out did not fit in what was left.
		for _, c := range all {
			if !slices.Contains(cols, c) && capacity > 0 && size(c) <= capacity-bytes {
				t.Errorf("capacity %d: %s (%d bytes) left out with %d bytes free", capacity, c, size(c), capacity-bytes)
			}
		}
	}

	// Skip, not stop: room for the first column and a later, smaller one
	// but not for the second keeps the first and the later one.
	small := slices.MinFunc(all[2:], func(a, b string) int { return cmp.Compare(size(a), size(b)) })
	if size(small) >= size(all[1]) {
		t.Fatalf("no column after %s is smaller than it; the skip case needs one", all[1])
	}
	cols, _ := ResidentColumns(testPacked, size(all[0])+size(small))
	if !slices.Contains(cols, all[0]) || slices.Contains(cols, all[1]) || !slices.Contains(cols, small) {
		t.Errorf("capacity for %s and %s kept %v", all[0], small, cols)
	}
}

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
