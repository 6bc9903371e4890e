package gpu

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"crystal/internal/crystal"
	"crystal/internal/device"
	"crystal/internal/sim"
)

// Radix-partitioning limits on the GPU (Section 4.4): the stable LSB pass
// must keep a per-thread histogram in registers and can process at most 7
// bits per pass; the unstable MSB pass keeps one histogram per thread block
// and can process 8.
const (
	MaxStableRadixBits   = 7
	MaxUnstableRadixBits = 8
)

// radixTile is one worker's scratch for the blocks it runs in a partition
// launch: the key tile, the payload tile when the pass moves one, and the
// block histogram when the shuffle is unstable.
type radixTile[K uint32 | uint64] struct {
	keys []K
	vals []int32
	hist []int64
}

// tileOf returns the worker's scratch carried on b, making it on the
// worker's first block of the launch with tiles of size elements and a
// histogram of hist partitions.
func tileOf[K uint32 | uint64](b *sim.Block, size int, payload bool, hist int) *radixTile[K] {
	t, _ := b.Scratch.(*radixTile[K])
	if t == nil {
		t = &radixTile[K]{keys: make([]K, size), hist: make([]int64, hist)}
		if payload {
			t.vals = make([]int32, size)
		}
		b.Scratch = t
	}
	return t
}

// RadixPartition performs one radix-partitioning pass over (keys, vals) on
// the radix bits keys[shift : shift+r), returning the partitioned arrays
// and the per-partition counts. stable selects the stable (LSB-compatible)
// variant. vals is empty or holds one payload value per key.
//
// Both variants run the phases of Section 4.4 on the radix core: a
// histogram kernel (one streaming read of the key column), a prefix-sum
// kernel over the (partition, block) matrix, and a shuffle kernel (read
// key+payload, block-local reorder in shared memory, coalesced partitioned
// write). Passes are labelled "radix" for 32-bit keys and "radix64" for the
// 64-bit sort keys of the ORDER BY pipeline, whose key column costs 8 bytes
// per element.
func RadixPartition[K uint32 | uint64](clk *device.Clock, cfg sim.Config, keys []K, vals []int32, r, shift int, stable bool) ([]K, []int32, []int64, error) {
	maxBits := MaxUnstableRadixBits
	if stable {
		maxBits = MaxStableRadixBits
	}
	if r <= 0 || r > maxBits {
		return nil, nil, nil, fmt.Errorf("gpu: radix bits %d out of range (1..%d) for stable=%v", r, maxBits, stable)
	}
	if err := crystal.CheckRadixPayload(len(keys), len(vals)); err != nil {
		return nil, nil, nil, err
	}
	n := len(keys)
	cfg.Elems = n
	parts := 1 << r
	label, elemBytes := "radix", int64(4)
	if bits.Len64(uint64(^K(0))) == 64 {
		label, elemBytes = "radix64", 8
	}
	payload := len(vals) > 0
	if payload {
		elemBytes += 4
	}
	// No tile holds more than the input: the few hundred rows of an ORDER
	// BY sort fill a fraction of one.
	tile := min(cfg.TileSize(), n)

	// Phase 1: histogram kernel, block b counting into row b of m.
	m := make([]int64, cfg.NumBlocks()*parts)
	hpass := sim.Run(clk.Spec(), cfg, func(b *sim.Block) {
		t := tileOf[K](b, tile, false, 0)
		nn := crystal.BlockLoad(b, keys, t.keys)
		crystal.RadixCount(t.keys[:nn], shift, m[b.ID*parts:(b.ID+1)*parts])
		b.Pass().BytesWritten += int64(parts) * 4
	})
	hpass.Label = label + " histogram"
	clk.Charge(hpass)

	// Phase 2: prefix sum over the (partition, block) histogram matrix to
	// obtain each block's write offset in every partition (a tiny kernel).
	counts := make([]int64, parts)
	crystal.RadixPrefix(m, counts)
	histBytes := int64(len(m)) * 4
	clk.Charge(&device.Pass{Label: label + " prefix", BytesRead: histBytes, BytesWritten: histBytes, Kernels: 1})

	// Phase 3: shuffle kernel.
	outK := make([]K, n)
	var outV []int32
	if payload {
		outV = make([]int32, n)
	}
	var cursor []int64
	hist := 0
	if !stable {
		// Block 0's offsets are where each partition starts; each block
		// recounts its tile to reserve its runs.
		cursor = make([]int64, parts)
		copy(cursor, m)
		hist = parts
	}
	spass := sim.Run(clk.Spec(), cfg, func(b *sim.Block) {
		t := tileOf[K](b, tile, payload, hist)
		nn := crystal.BlockLoad(b, keys, t.keys)
		var tv []int32
		if payload {
			crystal.BlockLoad(b, vals, t.vals)
			tv = t.vals[:nn]
		}
		off := m[b.ID*parts : (b.ID+1)*parts]
		if !stable {
			// Unstable: reserve a chunk per partition with one atomic each;
			// block completion order decides placement. Cursors for
			// different partitions are independent addresses, so only the
			// per-cursor chains serialize: the critical path is one atomic
			// per block, not one per (block, partition).
			off = t.hist
			crystal.RadixCount(t.keys[:nn], shift, off)
			for p, c := range off {
				if c > 0 {
					off[p] = atomic.AddInt64(&cursor[p], c) - c
				}
			}
			b.Pass().AtomicOps++
		}
		// Block-local reorder happens in shared memory (free); the writes
		// out of shared memory are coalesced runs per partition.
		crystal.RadixScatter(t.keys[:nn], tv, shift, off, outK, outV)
		b.Pass().BytesWritten += int64(nn) * elemBytes
	})
	spass.Label = label + " shuffle"
	clk.Charge(spass)
	return outK, outV, counts, nil
}

// lsbSort is the least-significant-bit radix sort of Merrill & Grimshaw:
// one stable pass per entry of widths, from the lowest bits up. A pass
// never writes its input, so the caller's slices are only read; a sort of
// no passes returns copies. It panics with RadixPartition's error when vals
// is neither empty nor one value per key.
func lsbSort[K uint32 | uint64](clk *device.Clock, cfg sim.Config, keys []K, vals []int32, widths []int) ([]K, []int32) {
	if len(widths) == 0 {
		return slices.Clone(keys), slices.Clone(vals)
	}
	k, v := keys, vals
	shift := 0
	for _, r := range widths {
		var err error
		if k, v, _, err = RadixPartition(clk, cfg, k, v, r, shift, true); err != nil {
			panic(err)
		}
		shift += r
	}
	return k, v
}

// LSBRadixSort sorts (keys, vals) with the least-significant-bit radix sort
// of Merrill & Grimshaw on the GPU. LSB requires *stable* partitioning,
// which limits each pass to 7 bits (per-thread register histograms), so
// 32-bit keys need five passes of 6,6,6,7,7 bits — the structural reason
// MSB sort wins on the GPU (Section 4.4).
func LSBRadixSort(clk *device.Clock, cfg sim.Config, keys []uint32, vals []int32) ([]uint32, []int32) {
	return lsbSort(clk, cfg, keys, vals, []int{6, 6, 6, 7, 7})
}

// RadixPassWidths splits a key width into stable radix pass widths, widest
// passes last (mirroring the 6,6,6,7,7 split LSBRadixSort uses for 32 bits).
// A width of zero (all keys equal) needs no passes.
func RadixPassWidths(width int) []int {
	if width <= 0 {
		return nil
	}
	passes := (width + MaxStableRadixBits - 1) / MaxStableRadixBits
	ws := make([]int, passes)
	rem := width
	for i := passes - 1; i >= 0; i-- {
		r := MaxStableRadixBits
		if rem < r {
			r = rem
		}
		ws[i] = r
		rem -= r
	}
	return ws
}

// LSBRadixSort64 stable-sorts (keys, vals) by key ascending with the LSB
// radix sort, processing only the low `width` bits (the ORDER BY pipeline
// rebases keys to key - min, so higher bits are zero and the sort skips the
// passes a full 64-bit key would need). Each stable pass covers at most 7
// bits (per-thread register histograms, Section 4.4). Returns sorted
// copies; the inputs are not modified.
func LSBRadixSort64(clk *device.Clock, cfg sim.Config, keys []uint64, vals []int32, width int) ([]uint64, []int32) {
	return lsbSort(clk, cfg, keys, vals, RadixPassWidths(width))
}

// MSBRadixSort sorts (keys, vals) by key using the most-significant-bit
// radix sort of Stehle & Jacobsen (Section 4.4): four unstable 8-bit
// partitioning levels, each level partitioning every bucket produced by the
// previous one. Unstable partitioning keeps a single block-wide offset
// array, which is what lets the GPU process 8 bits per pass and finish
// 32-bit keys in 4 passes. Each bucket is one chunk of the radix core; the
// per-level traffic is charged by hand. It panics when vals is neither
// empty nor one value per key.
func MSBRadixSort(clk *device.Clock, cfg sim.Config, keys []uint32, vals []int32) ([]uint32, []int32) {
	if err := crystal.CheckRadixPayload(len(keys), len(vals)); err != nil {
		panic(err)
	}
	n := len(keys)
	payload := len(vals) > 0
	k := slices.Clone(keys)
	v := slices.Clone(vals)
	tmpK := make([]uint32, n)
	tmpV := make([]int32, len(vals))

	type seg struct{ lo, hi int }
	segs := []seg{{0, n}}
	var off, counts [256]int64
	for level := 0; level < 4; level++ {
		shift := 24 - 8*level
		// One histogram kernel + one shuffle kernel per level; the per-level
		// traffic is the whole array regardless of how many buckets it is
		// split into.
		elemBytes := int64(4)
		if payload {
			elemBytes = 8
		}
		clk.Charge(&device.Pass{Label: fmt.Sprintf("msb l%d histogram", level), BytesRead: int64(n) * 4, Kernels: 1})
		var next []seg
		for _, s := range segs {
			sk, tk := k[s.lo:s.hi], tmpK[s.lo:s.hi]
			var sv, tv []int32
			if payload {
				sv, tv = v[s.lo:s.hi], tmpV[s.lo:s.hi]
			}
			crystal.RadixCount(sk, shift, off[:])
			crystal.RadixPrefix(off[:], counts[:])
			crystal.RadixScatter(sk, sv, shift, off[:], tk, tv)
			copy(sk, tk)
			copy(sv, tv)
			// A bucket of one key is in its final place.
			lo := s.lo
			for _, c := range counts {
				if c > 1 {
					next = append(next, seg{lo, lo + int(c)})
				}
				lo += int(c)
			}
		}
		clk.Charge(&device.Pass{
			Label:        fmt.Sprintf("msb l%d shuffle", level),
			BytesRead:    int64(n) * elemBytes,
			BytesWritten: int64(n) * elemBytes,
			Kernels:      1,
		})
		segs = next
	}
	return k, v
}
