package cpu

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"crystal/internal/device"
)

// radixGoldenPath holds the pass ledger of the CPU radix partition and sort:
// each charged device.Pass (floats as IEEE-754 bits, labels included), the
// clock's total, and digests of the outputs. It was recorded before the
// partition body moved onto the shared radix core; any change that leaves
// the model alone reproduces it byte for byte.
const radixGoldenPath = "testdata/radix.golden"

// goldenPass renders every field of a charged pass.
func goldenPass(p *device.Pass) string {
	return fmt.Sprintf("{%q R=%d W=%d RW=%d P=%v A=%d C=%016x M=%d V=%016x O=%016x K=%d}",
		p.Label, p.BytesRead, p.BytesWritten, p.RandomWrites, p.Probes, p.AtomicOps,
		math.Float64bits(p.ComputeCycles), p.Mispredicts,
		math.Float64bits(p.VectorEff), math.Float64bits(p.OccupancyFactor), p.Kernels)
}

// digest is a short SHA-256 of the little-endian encoding of v.
func digest(v any) string {
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// radixGoldenLines runs every recorded call and renders one line each. The
// sizes leave some of the eight worker chunks empty (n < 8) and make them
// uneven (70 000 = 8 × 8 750, 513 is not a multiple of 8).
func radixGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	emit := func(head string, clk *device.Clock, out string) {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s s=%016x", head, out, math.Float64bits(clk.Seconds()))
		for i := range clk.Passes() {
			b.WriteByte(' ')
			b.WriteString(goldenPass(&clk.Passes()[i]))
		}
		lines = append(lines, b.String())
	}
	for _, n := range []int{0, 1, 7, 511, 512, 513, 70000} {
		rng := rand.New(rand.NewSource(int64(n)))
		keys := make([]uint32, n)
		vals := make([]int32, n)
		for i := range keys {
			keys[i] = rng.Uint32()
			vals[i] = rng.Int31()
		}
		for _, withVals := range []bool{false, true} {
			v := vals
			if !withVals {
				v = nil
			}
			for _, shift := range []int{0, 9} {
				for r := 1; r <= 16; r++ {
					clk := device.NewClock(device.I76900())
					outK, outV, counts, err := RadixPartition(clk, keys, v, r, shift)
					if err != nil {
						t.Fatal(err)
					}
					head := fmt.Sprintf("partition n=%d vals=%v shift=%d r=%d", n, withVals, shift, r)
					emit(head, clk, fmt.Sprintf("keys=%s vals=%d:%s counts=%s", digest(outK), len(outV), digest(outV), digest(counts)))
				}
			}
			clk := device.NewClock(device.I76900())
			outK, outV := LSBRadixSort(clk, keys, v)
			emit(fmt.Sprintf("lsb n=%d vals=%v", n, withVals), clk, fmt.Sprintf("keys=%s vals=%d:%s", digest(outK), len(outV), digest(outV)))
		}
	}
	return lines
}

// TestRadixGoldenLedger pins every CPU radix pass to the recorded ledger:
// outputs, labels, bytes, cycles and simulated seconds.
func TestRadixGoldenLedger(t *testing.T) {
	f, err := os.Open(radixGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
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
