package crystal

import (
	"math/rand"
	"slices"
	"testing"
)

// radixPass runs one count → prefix → scatter pass of the radix core over
// keys cut into chunks of the given size, the way both devices drive it.
func radixPass[K uint32 | uint64](keys []K, vals []int32, chunk, shift, parts int) ([]K, []int32, []int64) {
	chunks := (len(keys) + chunk - 1) / chunk
	m := make([]int64, chunks*parts)
	for c := 0; c < chunks; c++ {
		RadixCount(keys[c*chunk:min((c+1)*chunk, len(keys))], shift, m[c*parts:(c+1)*parts])
	}
	counts := make([]int64, parts)
	RadixPrefix(m, counts)
	outK, outV := make([]K, len(keys)), make([]int32, len(vals))
	for c := 0; c < chunks; c++ {
		lo, hi := c*chunk, min((c+1)*chunk, len(keys))
		var cv []int32
		if len(vals) > 0 {
			cv = vals[lo:hi]
		}
		RadixScatter(keys[lo:hi], cv, shift, m[c*parts:(c+1)*parts], outK, outV)
	}
	return outK, outV, counts
}

// TestRadixPassIsStablePartition pins the radix core on both key widths:
// a pass over chunked input leaves the keys partitioned by the selected
// digit, in input order within a partition, with the payload moved along,
// and reports every partition's size; a pass without payload moves keys
// alone, and a payload of another length is refused.
func TestRadixPassIsStablePartition(t *testing.T) {
	const n, chunk, shift, parts = 1000, 96, 3, 16
	rng := rand.New(rand.NewSource(4))
	keys32 := make([]uint32, n)
	keys64 := make([]uint64, n)
	vals := make([]int32, n)
	for i := range keys32 {
		keys32[i] = rng.Uint32()
		keys64[i] = rng.Uint64()
		vals[i] = int32(i)
	}
	digit32 := func(k uint32) int { return int(k>>shift) & (parts - 1) }
	outK, outV, counts := radixPass(keys32, vals, chunk, shift, parts)
	want := slices.Clone(vals)
	slices.SortStableFunc(want, func(a, b int32) int { return digit32(keys32[a]) - digit32(keys32[b]) })
	for i, v := range outV {
		if v != want[i] || outK[i] != keys32[v] {
			t.Fatalf("uint32 pass: position %d holds row %d, want row %d", i, v, want[i])
		}
	}
	var total int64
	for p, c := range counts {
		var exact int64
		for _, k := range keys32 {
			if digit32(k) == p {
				exact++
			}
		}
		if c != exact {
			t.Errorf("partition %d counted %d keys, holds %d", p, c, exact)
		}
		total += c
	}
	if total != n {
		t.Errorf("partitions hold %d keys, want %d", total, n)
	}

	out64, none, _ := radixPass(keys64, nil, chunk, 60, parts)
	if len(none) != 0 {
		t.Errorf("a keys-only pass wrote %d payload values", len(none))
	}
	for i := 1; i < n; i++ {
		if out64[i-1]>>60 > out64[i]>>60 {
			t.Fatalf("uint64 pass: position %d not partitioned by the top digit", i)
		}
	}

	if err := CheckRadixPayload(n, 0); err != nil {
		t.Errorf("keys-only payload refused: %v", err)
	}
	if err := CheckRadixPayload(n, n); err != nil {
		t.Errorf("one value per key refused: %v", err)
	}
	if CheckRadixPayload(n, n-1) == nil {
		t.Error("a short payload was accepted")
	}
}
