package cpu

import (
	"crystal/internal/crystal"
	"crystal/internal/device"
)

// RadixJoin implements the partitioned hash join discussed in Section 4.3:
// both relations are radix partitioned into cache-sized chunks, then each
// pair of corresponding partitions is joined with a small, cache-resident
// hash table. It is faster than the no-partitioning join for a single large
// join, but it must see the whole input before starting, so it cannot be
// pipelined into multi-join plans — which is why the paper's SSB engines
// stay with the no-partitioning join.
//
// It computes SUM(build.v + probe.v) over matches, like the Q4
// microbenchmark, and returns the checksum.
func RadixJoin(clk *device.Clock, buildKeys, buildVals, probeKeys, probeVals []int32, radixBits int) int64 {
	if radixBits <= 0 {
		radixBits = 8
	}
	numPart := 1 << radixBits

	bk, bv, bCounts := partitionInt32(clk, buildKeys, buildVals, radixBits)
	pk, pv, pCounts := partitionInt32(clk, probeKeys, probeVals, radixBits)

	var sum int64
	var bOff, pOff int64
	var probePass device.Pass
	probePass.Label = "radix join per-partition probe"
	for p := 0; p < numPart; p++ {
		bn, pn := bCounts[p], pCounts[p]
		if bn > 0 && pn > 0 {
			ht := crystal.NewHashTable(int(bn), 0.5, true)
			for i := bOff; i < bOff+bn; i++ {
				ht.Put(bk[i], bv[i])
			}
			for i := pOff; i < pOff+pn; i++ {
				if v, ok := ht.Get(pk[i]); ok {
					sum += int64(pv[i]) + int64(v)
				}
			}
			// Per-partition tables are cache resident by construction; the
			// probes never leave cache (the whole point of radix joins).
			probePass.AddProbes(device.ProbeSet{Count: bn + pn, StructBytes: ht.Bytes()})
		}
		bOff += bn
		pOff += pn
	}
	probePass.BytesRead = int64(len(buildKeys))*8 + int64(len(probeKeys))*8
	probePass.ComputeCycles = cyclesProbeScalar * float64(len(buildKeys)+len(probeKeys))
	clk.Charge(&probePass)
	return sum
}

// partitionInt32 radix partitions an (int32 key, int32 val) pair on the low
// radixBits of the key, charging one histogram and one shuffle pass.
func partitionInt32(clk *device.Clock, keys, vals []int32, radixBits int) ([]int32, []int32, []int64) {
	uk := make([]uint32, len(keys))
	for i, k := range keys {
		uk[i] = uint32(k)
	}
	outK, outV, counts, err := RadixPartition(clk, uk, vals, radixBits, 0)
	if err != nil {
		panic(err) // radixBits validated by caller
	}
	sk := make([]int32, len(outK))
	for i, k := range outK {
		sk[i] = int32(k)
	}
	return sk, outV, counts
}
