package gpu

import (
	"encoding/binary"
	"sort"
	"testing"

	"crystal/internal/device"
	"crystal/internal/sim"
)

// FuzzRadixSort feeds arbitrary key bytes and widths to the 64-bit LSD radix
// sort and checks the three properties the ORDER BY pipeline depends on:
// the output is a permutation of the input (via the payload indices), it is
// sorted on the masked key bits, and ties keep their input order (stability
// — what makes the per-key sort cascade a total order). The keys' low 32
// bits go through the 32-bit LSD sort under the same checks, and through
// one unstable 8-bit partition pass, which must be a permutation laid out
// in partition order with the counts it reports.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(64))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255}, uint8(13))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(7))

	f.Fuzz(func(t *testing.T, data []byte, widthByte uint8) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
		width := int(widthByte % 65) // 0..64; 0 must be a no-op sort
		mask := ^uint64(0)
		if width < 64 {
			mask = 1<<width - 1
		}
		vals := make([]int32, len(keys))
		for i := range vals {
			vals[i] = int32(i)
		}
		clk := device.NewClock(device.V100())
		cfg := sim.Config{Threads: 256, ItemsPerThread: 8, Elems: len(keys)}
		outK, outV := LSBRadixSort64(clk, cfg, keys, vals, width)
		checkPermutation(t, keys, outK, outV)
		checkSortedStable(t, outK, outV, mask)
		// Cross-check against the standard library on the masked bits.
		ref := append([]uint64(nil), keys...)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i]&mask < ref[j]&mask })
		for i := range ref {
			if outK[i]&mask != ref[i]&mask {
				t.Fatalf("masked key order differs from sort.SliceStable at %d", i)
			}
		}
		if len(keys) > 0 && width > 0 && clk.Seconds() <= 0 {
			t.Fatal("sort charged no simulated time")
		}

		low := make([]uint32, len(keys))
		for i, k := range keys {
			low[i] = uint32(k)
		}
		k32, v32 := LSBRadixSort(clk, cfg, low, vals)
		checkPermutation(t, low, k32, v32)
		checkSortedStable(t, k32, v32, ^uint32(0))

		shift := width % 25 // the 8 partition bits stay inside the low 32
		pk, pv, counts, err := RadixPartition(clk, cfg, low, vals, MaxUnstableRadixBits, shift, false)
		if err != nil {
			t.Fatal(err)
		}
		checkPermutation(t, low, pk, pv)
		if len(counts) != 1<<MaxUnstableRadixBits {
			t.Fatalf("%d partition counts, want %d", len(counts), 1<<MaxUnstableRadixBits)
		}
		pos := 0
		for p, c := range counts {
			for end := pos + int(c); pos < end; pos++ {
				if pos >= len(pk) || int(pk[pos]>>shift&0xFF) != p {
					t.Fatalf("position %d is not in partition %d of counts %v", pos, p, counts)
				}
			}
		}
		if pos != len(pk) {
			t.Fatalf("counts cover %d keys, pass wrote %d", pos, len(pk))
		}
	})
}

// checkPermutation: outV is a permutation of the input positions and every
// output key is the input key its payload names.
func checkPermutation[K uint32 | uint64](t *testing.T, keys, outK []K, outV []int32) {
	t.Helper()
	if len(outK) != len(keys) || len(outV) != len(keys) {
		t.Fatalf("length changed: %d keys in, %d keys and %d payloads out", len(keys), len(outK), len(outV))
	}
	seen := make([]bool, len(keys))
	for i, v := range outV {
		if v < 0 || int(v) >= len(keys) || seen[v] {
			t.Fatalf("payload %d at position %d is not a permutation", v, i)
		}
		seen[v] = true
		if outK[i] != keys[v] {
			t.Fatalf("key %d detached from its payload: got %x, input[%d] = %x", i, outK[i], v, keys[v])
		}
	}
}

// checkSortedStable: outK is ascending on the masked bits and ties keep
// their input order.
func checkSortedStable[K uint32 | uint64](t *testing.T, outK []K, outV []int32, mask K) {
	t.Helper()
	for i := 1; i < len(outK); i++ {
		a, b := outK[i-1]&mask, outK[i]&mask
		if a > b {
			t.Fatalf("not sorted on mask %x at %d: %x > %x", mask, i, a, b)
		}
		if a == b && outV[i-1] >= outV[i] {
			t.Fatalf("unstable on tie at %d: payload %d before %d", i, outV[i-1], outV[i])
		}
	}
}
