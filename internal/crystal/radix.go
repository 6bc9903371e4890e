package crystal

import "fmt"

// The radix core: the histogram → prefix → scatter pass of Section 4.4 that
// both radix partitioning and radix sort are built from, on either device
// and either key width. Input is cut into chunks (a thread block's tile on
// the GPU, a worker's slice on the CPU); each chunk counts its keys per
// partition into its row of one chunks × partitions matrix, RadixPrefix
// turns the matrix into every chunk's write offsets, and each chunk
// scatters through its row. The core is unmetered: the device packages
// charge the traffic of each phase where they run it, so moving a pass onto
// the core cannot move the model.

// CheckRadixPayload rejects a payload that is present but not one value per
// key. An empty payload means the pass moves keys alone.
func CheckRadixPayload(keys, vals int) error {
	if vals != 0 && vals != keys {
		return fmt.Errorf("radix: %d payload values for %d keys", vals, keys)
	}
	return nil
}

// RadixCount sets hist[p] to the number of keys whose bits
// [shift, shift+log2(len(hist))) equal p. len(hist) is a power of two.
func RadixCount[K uint32 | uint64](keys []K, shift int, hist []int64) {
	clear(hist)
	mask := K(len(hist) - 1)
	for _, k := range keys {
		hist[(k>>shift)&mask]++
	}
}

// RadixPrefix turns m, a matrix of per-chunk partition counts stored one
// chunk's row of len(counts) after another, into each chunk's first write
// position in every partition, and sets counts to each partition's total.
// The exclusive prefix runs partition-major: partition p of chunk c starts
// after every key of a smaller partition and after partition p of every
// earlier chunk, which is what makes a pass whose chunks scatter in input
// order stable.
func RadixPrefix(m, counts []int64) {
	parts := len(counts)
	var start int64
	for p := range counts {
		first := start
		for c := p; c < len(m); c += parts {
			m[c], start = start, start+m[c]
		}
		counts[p] = start - first
	}
}

// RadixScatter writes one chunk's keys, and its payload when vals is not
// empty, to the positions off holds for their partitions, advancing each
// offset past what it wrote. off is the chunk's row of RadixPrefix's matrix
// (or offsets reserved another way) and has one entry per partition; vals
// is empty or one value per key.
func RadixScatter[K uint32 | uint64](keys []K, vals []int32, shift int, off []int64, outK []K, outV []int32) {
	mask := K(len(off) - 1)
	// A nil payload, or one resliced to the keys' length, keeps the loop's
	// live values in registers: the loop is memory bound, and a stack
	// spill per key measurably slowed the CPU partition.
	if len(vals) == 0 {
		vals = nil
	} else {
		vals = vals[:len(keys)]
	}
	for i := range keys {
		p := (keys[i] >> shift) & mask
		pos := off[p]
		off[p]++
		outK[pos] = keys[i]
		if vals != nil {
			outV[pos] = vals[i]
		}
	}
}
