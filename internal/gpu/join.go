package gpu

import (
	"crystal/internal/crystal"
	"crystal/internal/device"
	"crystal/internal/sim"
)

// BuildHashTable runs the GPU build-phase kernel: the build relation's
// (key, value) columns are streamed in tiles and inserted into a linear
// probing table with atomic CAS (Section 4.3).
func BuildHashTable(clk *device.Clock, keys, vals []int32, fill float64) *crystal.HashTable {
	ht := crystal.NewHashTable(len(keys), fill, vals != nil)
	pass := sim.Run(clk.Spec(), sim.DefaultConfig(len(keys)), func(b *sim.Block) {
		crystal.BuildKernel(b, ht, keys, vals)
	})
	clk.Charge(pass)
	return ht
}

// BuildHashTableBytes builds a table with an exact byte footprint for the
// Figure 13 sweep; the build relation is derived from the requested size at
// 50% fill.
func BuildHashTableBytes(clk *device.Clock, bytes int64, keyOf func(i int) int32, valOf func(i int) int32) *crystal.HashTable {
	ht := crystal.NewHashTableBytes(bytes)
	n := ht.Capacity() / 2 // 50% fill
	keys := make([]int32, n)
	vals := make([]int32, n)
	for i := 0; i < n; i++ {
		keys[i], vals[i] = keyOf(i), valOf(i)
	}
	pass := sim.Run(clk.Spec(), sim.DefaultConfig(n), func(b *sim.Block) {
		crystal.BuildKernel(b, ht, keys, vals)
	})
	clk.Charge(pass)
	return ht
}

// ProbeSum runs the probe-phase kernel of the Q4 join microbenchmark
// (SELECT SUM(A.v + B.v) FROM A, B WHERE A.k = B.k, Section 4.3): tiles of
// probe keys and payloads are loaded with BlockLoad, each thread probes the
// hash table, local sums are reduced in the block and a single atomic per
// block updates the global sum.
func ProbeSum(clk *device.Clock, cfg sim.Config, probeKeys, probeVals []int32, ht *crystal.HashTable) int64 {
	cfg.Elems = len(probeKeys)
	var sum sim.Counter
	pass := sim.Run(clk.Spec(), cfg, func(b *sim.Block) {
		ts := cfg.TileSize()
		keys := make([]int32, ts)
		vals := make([]int32, ts)
		match := make([]int32, ts)
		bitmap := make([]uint8, ts)

		n := crystal.BlockLoad(b, probeKeys, keys)
		crystal.BlockLoad(b, probeVals, vals)
		for i := 0; i < n; i++ {
			bitmap[i] = 1
		}
		crystal.BlockLookup(b, ht, keys, n, bitmap, match, false)
		var local int64
		for i := 0; i < n; i++ {
			if bitmap[i] != 0 {
				local += int64(vals[i]) + int64(match[i])
			}
		}
		if local != 0 {
			b.AtomicAdd(&sum, local)
		}
	})
	clk.Charge(pass)
	return sum.Value()
}
