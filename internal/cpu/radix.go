package cpu

import (
	"fmt"

	"crystal/internal/crystal"
	"crystal/internal/device"
)

// l1Bytes is the per-core L1 budget available to the software
// write-combining buffers of the radix shuffle (Section 4.4: beyond 8 bits
// "the size of the partition buffers needed exceeds the size of L1 cache
// and the performance starts to deteriorate").
const l1Bytes = 32 << 10

// bufBytesPerPartition is the write-combining buffer footprint per
// partition: one cache line of keys plus one of payloads.
const bufBytesPerPartition = 128

// radixWorkers is the number of threads a CPU radix pass runs on. Each
// scans one fixed chunk, so its histogram row lines up with its scatter
// offsets, which is what makes the partition stable; the histogram matrix
// the model charges has one row per thread.
const radixWorkers = 8

// RadixPartition performs one stable radix-partitioning pass over
// (keys, vals) on bits [shift, shift+r), following Polychroniou & Ross on
// the radix core: a histogram phase (each thread counts its chunk in an
// L1-resident histogram), a 2D prefix sum over (partition, thread), then
// each thread scatters its chunk through L1-resident write-combining
// buffers (Section 4.4). vals is empty or holds one payload value per key.
// Returns the partitioned arrays and partition counts.
func RadixPartition(clk *device.Clock, keys []uint32, vals []int32, r, shift int) ([]uint32, []int32, []int64, error) {
	if r <= 0 || r > 16 {
		return nil, nil, nil, fmt.Errorf("cpu: radix bits %d out of range (1..16)", r)
	}
	if err := crystal.CheckRadixPayload(len(keys), len(vals)); err != nil {
		return nil, nil, nil, err
	}
	n := len(keys)
	parts := 1 << r
	m := make([]int64, radixWorkers*parts)
	parallelForN(radixWorkers, n, func(w, lo, hi int) {
		crystal.RadixCount(keys[lo:hi], shift, m[w*parts:(w+1)*parts])
	})
	clk.Charge(&device.Pass{
		Label:         "cpu radix histogram",
		BytesRead:     int64(n) * 4,
		BytesWritten:  int64(len(m)) * 4,
		ComputeCycles: cyclesRadixHist * float64(n),
	})

	counts := make([]int64, parts)
	crystal.RadixPrefix(m, counts)
	outK := make([]uint32, n)
	var outV []int32
	elemBytes := int64(4)
	if len(vals) > 0 {
		outV = make([]int32, n)
		elemBytes = 8
	}
	parallelForN(radixWorkers, n, func(w, lo, hi int) {
		var v []int32
		if len(vals) > 0 {
			v = vals[lo:hi]
		}
		crystal.RadixScatter(keys[lo:hi], v, shift, m[w*parts:(w+1)*parts], outK, outV)
	})

	pass := &device.Pass{
		Label:         "cpu radix shuffle",
		BytesRead:     int64(n) * elemBytes,
		BytesWritten:  int64(n) * elemBytes,
		ComputeCycles: cyclesRadixShuf * float64(n),
	}
	// Write-combining buffer spill: with 2^r partitions the buffers exceed
	// L1 and a growing fraction of output lines lose write combining,
	// costing a read-for-ownership on the way out.
	if buf := int64(parts) * bufBytesPerPartition; buf > l1Bytes {
		spill := 1 - float64(l1Bytes)/float64(buf)
		pass.BytesRead += int64(spill * float64(int64(n)*elemBytes))
	}
	clk.Charge(pass)
	return outK, outV, counts, nil
}

// LSBRadixSort sorts (keys, vals) by key with the least-significant-bit
// radix sort of Polychroniou & Ross: four stable 8-bit partitioning passes
// (Section 4.4: "On the CPU, we use stable partitioning to implement LSB
// radix sort. It ends up running 4 radix partitioning passes each looking
// at 8-bits at [a] time").
//
// A pass never writes its input, so the caller's slices are only read. It
// panics with RadixPartition's error when vals is neither empty nor one
// value per key.
func LSBRadixSort(clk *device.Clock, keys []uint32, vals []int32) ([]uint32, []int32) {
	k, v := keys, vals
	for pass := 0; pass < 4; pass++ {
		var err error
		if k, v, _, err = RadixPartition(clk, k, v, 8, 8*pass); err != nil {
			panic(err)
		}
	}
	return k, v
}
