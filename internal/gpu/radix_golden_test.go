package gpu

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"crystal/internal/device"
	"crystal/internal/sim"
)

// radixGoldenPath holds the pass ledger of every GPU radix entry point over
// radixGoldenSizes: each charged device.Pass (floats as IEEE-754 bits,
// labels included), the clock's total, and digests of the outputs. It was
// recorded before the partition and sort bodies became one generic core;
// any change that leaves the model alone reproduces it byte for byte.
const radixGoldenPath = "testdata/radix.golden"

// radixGoldenSizes straddle the 512-key tile of sim.DefaultConfig and reach
// a grid of 137 blocks.
var radixGoldenSizes = []int{0, 1, 511, 512, 513, 70000}

// goldenPass renders every field of a charged pass.
func goldenPass(p *device.Pass) string {
	return fmt.Sprintf("{%q R=%d W=%d RW=%d P=%v A=%d C=%016x M=%d V=%016x O=%016x K=%d}",
		p.Label, p.BytesRead, p.BytesWritten, p.RandomWrites, p.Probes, p.AtomicOps,
		math.Float64bits(p.ComputeCycles), p.Mispredicts,
		math.Float64bits(p.VectorEff), math.Float64bits(p.OccupancyFactor), p.Kernels)
}

// goldenClock renders the clock's total and every pass it was charged.
func goldenClock(clk *device.Clock) string {
	var b strings.Builder
	fmt.Fprintf(&b, "s=%016x", math.Float64bits(clk.Seconds()))
	for i := range clk.Passes() {
		b.WriteByte(' ')
		b.WriteString(goldenPass(&clk.Passes()[i]))
	}
	return b.String()
}

// digest is a short SHA-256 of the little-endian encoding of v.
func digest(v any) string {
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// goldenInputs draws n keys (masked to width bits) and n payload values.
func goldenInputs[K uint32 | uint64](n, width int) ([]K, []int32) {
	r := rand.New(rand.NewSource(int64(n)*131 + int64(width)))
	keys := make([]K, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = K(r.Uint64())
		if width < 64 {
			keys[i] &= K(1)<<width - 1
		}
		vals[i] = r.Int31()
	}
	return keys, vals
}

// partitionDigest is the ledger of one partition pass's output. A stable
// pass is pinned exactly; an unstable one places each block's run by
// completion order, so only the counts and every partition's multiset of
// (key, value) pairs are fixed.
func partitionDigest[K uint32 | uint64](outK []K, outV []int32, counts []int64, stable bool) string {
	if stable {
		return fmt.Sprintf("n=%d keys=%s vals=%d:%s counts=%s", len(outK), digest(outK), len(outV), digest(outV), digest(counts))
	}
	type pair struct {
		K K
		V int32
	}
	pairs := make([]pair, len(outK))
	for i, k := range outK {
		pairs[i].K = k
		if len(outV) > 0 {
			pairs[i].V = outV[i]
		}
	}
	lo := 0
	for _, c := range counts {
		part := pairs[lo : lo+int(c)]
		slices.SortFunc(part, func(a, b pair) int {
			if a.K != b.K {
				if a.K < b.K {
					return -1
				}
				return 1
			}
			return int(a.V) - int(b.V)
		})
		lo += int(c)
	}
	return fmt.Sprintf("n=%d vals=%d multisets=%s counts=%s", len(outK), len(outV), digest(pairs), digest(counts))
}

// radixGoldenLines runs every recorded call and renders one line each.
func radixGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	emit := func(head string, clk *device.Clock, out string) {
		lines = append(lines, head+" "+out+" "+goldenClock(clk))
	}
	cfg := sim.DefaultConfig(0)
	for _, n := range radixGoldenSizes {
		k32, v32 := goldenInputs[uint32](n, 32)
		k64, v64 := goldenInputs[uint64](n, 64)
		for _, withVals := range []bool{false, true} {
			vals32, vals64 := v32, v64
			if !withVals {
				vals32, vals64 = nil, nil
			}
			for _, shift := range []int{0, 9} {
				for _, stable := range []bool{true, false} {
					maxBits := MaxUnstableRadixBits
					if stable {
						maxBits = MaxStableRadixBits
					}
					for r := 1; r <= maxBits; r++ {
						clk := device.NewClock(device.V100())
						outK, outV, counts, err := RadixPartition(clk, cfg, k32, vals32, r, shift, stable)
						if err != nil {
							t.Fatal(err)
						}
						head := fmt.Sprintf("partition32 n=%d vals=%v shift=%d stable=%v r=%d", n, withVals, shift, stable, r)
						emit(head, clk, partitionDigest(outK, outV, counts, stable))
					}
				}
				for r := 1; r <= MaxStableRadixBits; r++ {
					clk := device.NewClock(device.V100())
					outK, outV, counts, err := RadixPartition(clk, cfg, k64, vals64, r, shift, true)
					if err != nil {
						t.Fatal(err)
					}
					head := fmt.Sprintf("partition64 n=%d vals=%v shift=%d stable=true r=%d", n, withVals, shift, r)
					emit(head, clk, partitionDigest(outK, outV, counts, true))
				}
			}
			sorted := func(k any, v []int32) string {
				return fmt.Sprintf("keys=%s vals=%d:%s", digest(k), len(v), digest(v))
			}
			clk := device.NewClock(device.V100())
			outK, outV := MSBRadixSort(clk, cfg, k32, vals32)
			emit(fmt.Sprintf("msb32 n=%d vals=%v", n, withVals), clk, sorted(outK, outV))
			if !withVals {
				// The ledger was recorded where the LSD sorts could not run
				// without a payload; TestRadixPayloadLength covers them.
				continue
			}
			clk = device.NewClock(device.V100())
			outK, outV = LSBRadixSort(clk, cfg, k32, vals32)
			emit(fmt.Sprintf("lsb32 n=%d vals=%v", n, withVals), clk, sorted(outK, outV))
			for _, width := range []int{0, 1, 7, 8, 20, 40, 64} {
				keys, vals := goldenInputs[uint64](n, width)
				clk := device.NewClock(device.V100())
				outK, outV := LSBRadixSort64(clk, cfg, keys, vals, width)
				emit(fmt.Sprintf("lsb64 n=%d vals=%v width=%d", n, withVals, width), clk, sorted(outK, outV))
			}
		}
	}
	return lines
}

// readGolden returns the lines of a golden file.
func readGolden(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestRadixGoldenLedger pins every GPU radix pass to the recorded ledger:
// outputs, labels, bytes, atomics, kernel counts and simulated seconds.
func TestRadixGoldenLedger(t *testing.T) {
	want := readGolden(t, radixGoldenPath)
	got := radixGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d ledger lines, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad < 5 {
				t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d ledger lines differ from %s", bad, len(got), radixGoldenPath)
	}
}
