// Package crystal is a Go port of the paper's primary contribution: the
// Crystal library of block-wide functions implementing the tile-based
// execution model (Section 3.3, Table 1).
//
// A block-wide function takes a set of tiles as input, performs one task
// co-operatively across the threads of a thread block, and outputs a set of
// tiles. Tiles live in "registers" (per-block slices) or shared memory; a
// full SQL operator pipeline over a tile runs inside a single kernel, so the
// input columns are read from global memory exactly once and the final
// output is written coalesced — the two properties that let the tile-based
// model saturate memory bandwidth where the independent-threads model of
// prior GPU databases cannot (Figure 4).
//
// Each primitive meters the global-memory traffic it generates into the
// owning block's device.Pass; shared-memory and register traffic is free,
// matching the paper's models.
package crystal

import (
	"crystal/internal/device"
	"crystal/internal/sim"
)

// Value is the set of 4- and 8-byte column types Crystal tiles hold. The
// paper's workloads use 4-byte integers and floats throughout.
type Value interface {
	~int32 | ~uint32 | ~int64 | ~uint64 | ~float32 | ~float64
}

func bytesOf[T Value]() int64 {
	var v T
	switch any(v).(type) {
	case int64, uint64, float64:
		return 8
	default:
		return 4
	}
}

// BlockLoad copies this block's tile of items from the column in global
// memory into the register array items (len >= tile size). It returns the
// number of valid elements loaded (the final tile of a grid may be partial).
// Full tiles use vector instructions; the launch configuration's vector
// efficiency is accounted at launch level (Figure 9).
func BlockLoad[T Value](b *sim.Block, col []T, items []T) int {
	n := b.TileElems
	if rem := len(col) - b.Offset; n > rem {
		n = rem
	}
	if n <= 0 {
		return 0
	}
	copy(items[:n], col[b.Offset:b.Offset+n])
	b.Pass().BytesRead += int64(n) * bytesOf[T]()
	return n
}

// BlockLoadSel selectively loads the tile elements whose bitmap entry is
// set (Table 1: used after a previous selection or join has filtered the
// tile). Unselected register slots are left untouched. The traffic charged
// is the number of distinct cache lines actually touched, capped at the
// full tile — exactly the min(4|L|/C, |L|sigma) term of the Section 5.3
// column-access model, computed from the real bitmap rather than estimated.
func BlockLoadSel[T Value](b *sim.Block, col []T, bitmap []uint8, items []T) int {
	n := b.TileElems
	if rem := len(col) - b.Offset; n > rem {
		n = rem
	}
	if n <= 0 {
		return 0
	}
	elemBytes := bytesOf[T]()
	perLine := int(b.LineSize() / elemBytes)
	if perLine <= 0 {
		perLine = 1
	}
	lines := 0
	lastLine := -1
	for i := 0; i < n; i++ {
		if bitmap[i] == 0 {
			continue
		}
		items[i] = col[b.Offset+i]
		if line := (b.Offset + i) / perLine; line != lastLine {
			lines++
			lastLine = line
		}
	}
	b.Pass().BytesRead += int64(lines) * int64(perLine) * elemBytes
	return n
}

// BlockStore copies n contiguous items from registers/shared memory to
// global memory at out[dst:]. The write is coalesced (Table 1).
func BlockStore[T Value](b *sim.Block, items []T, n int, out []T, dst int) {
	if n <= 0 {
		return
	}
	copy(out[dst:dst+n], items[:n])
	b.Pass().BytesWritten += int64(n) * bytesOf[T]()
}

// BlockPred applies pred to the first n items and stores the result in
// bitmap (Table 1). Predicate evaluation is register-only compute; the GPU
// saturates bandwidth regardless (Section 4.2), so no time is charged.
func BlockPred[T Value](b *sim.Block, items []T, n int, pred func(T) bool, bitmap []uint8) {
	for i := 0; i < n; i++ {
		if pred(items[i]) {
			bitmap[i] = 1
		} else {
			bitmap[i] = 0
		}
	}
}

// BlockScan co-operatively computes the exclusive prefix sum of the bitmap
// across the block and writes per-item output offsets into indices; it
// returns the total number of set entries (Table 1). The hierarchical
// shared-memory scan of the real implementation is free in the timing
// model, as the paper's measurements justify.
func BlockScan(b *sim.Block, bitmap []uint8, n int, indices []int32) int {
	total := int32(0)
	for i := 0; i < n; i++ {
		indices[i] = total
		total += int32(bitmap[i])
	}
	return int(total)
}

// BlockShuffle uses the bitmap and the scan offsets to rearrange the
// matched items into a contiguous prefix of out (in shared memory), so the
// subsequent BlockStore is coalesced (Table 1, Figure 6).
func BlockShuffle[T Value](b *sim.Block, items []T, bitmap []uint8, indices []int32, n int, out []T) int {
	m := 0
	for i := 0; i < n; i++ {
		if bitmap[i] != 0 {
			out[indices[i]] = items[i]
			m++
		}
	}
	return m
}

// BlockLookup probes the hash table for the selected keys of a tile
// (Table 1). For each key with a set bitmap entry it writes the matching
// payload into vals and keeps the bit; keys with no match have their bit
// cleared. Each lookup is metered as one random probe against the table's
// footprint; dependent marks probes that belong to the second or later join
// of a pipelined multi-join kernel (Section 5.3).
func BlockLookup(b *sim.Block, ht *HashTable, keys []int32, n int, bitmap []uint8, vals []int32, dependent bool) int {
	probes := int64(0)
	matched := 0
	for i := 0; i < n; i++ {
		if bitmap[i] == 0 {
			continue
		}
		probes++
		v, ok := ht.Get(keys[i])
		if !ok {
			bitmap[i] = 0
			continue
		}
		if vals != nil {
			vals[i] = v
		}
		matched++
	}
	b.Pass().AddProbes(device.ProbeSet{Count: probes, StructBytes: ht.Bytes(), Dependent: dependent})
	return matched
}
