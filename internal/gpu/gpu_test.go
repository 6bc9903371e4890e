package gpu

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"crystal/internal/crystal"
	"crystal/internal/device"
	"crystal/internal/sim"
)

func newClock() *device.Clock { return device.NewClock(device.V100()) }

func refSelect(in []int32, pred func(int32) bool) []int32 {
	var out []int32
	for _, v := range in {
		if pred(v) {
			out = append(out, v)
		}
	}
	return out
}

func TestSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make([]int32, 100_000)
	for i := range in {
		in[i] = int32(rng.Intn(1000))
	}
	pred := func(v int32) bool { return v > 500 }
	clk := newClock()
	got := Select(clk, sim.DefaultConfig(0), in, pred, SelectIf)
	want := refSelect(in, pred)
	if len(got) != len(want) {
		t.Fatalf("select returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d (stability broken)", i, got[i], want[i])
		}
	}
	if clk.Seconds() <= 0 {
		t.Error("no simulated time charged")
	}
}

func TestSelectEmptyAndAllMatch(t *testing.T) {
	in := []int32{1, 2, 3, 4}
	clk := newClock()
	if got := Select(clk, sim.DefaultConfig(0), in, func(int32) bool { return false }, SelectPred); len(got) != 0 {
		t.Errorf("none-match select returned %d rows", len(got))
	}
	if got := Select(clk, sim.DefaultConfig(0), in, func(int32) bool { return true }, SelectPred); len(got) != 4 {
		t.Errorf("all-match select returned %d rows", len(got))
	}
}

func TestSelectIndependentSameRowSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := make([]int32, 50_000)
	for i := range in {
		in[i] = int32(rng.Intn(100))
	}
	pred := func(v int32) bool { return v < 37 }
	clk := newClock()
	got := SelectIndependent(clk, in, pred)
	want := refSelect(in, pred)
	if len(got) != len(want) {
		t.Fatalf("independent select: %d rows, want %d", len(got), len(want))
	}
	// Row order differs (thread-strided); compare as multisets.
	sortInt32(got)
	sortInt32(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("independent select row multiset differs")
		}
	}
}

func TestTiledBeatsIndependentThreads(t *testing.T) {
	// Section 3.3 microbenchmark: the independent-threads plan is ~9x
	// slower (19 ms vs 2.1 ms) due to the second read and uncoalesced
	// writes.
	rng := rand.New(rand.NewSource(3))
	in := make([]int32, 1<<20)
	for i := range in {
		in[i] = int32(rng.Intn(100))
	}
	pred := func(v int32) bool { return v < 50 } // selectivity 0.5
	tiled, indep := newClock(), newClock()
	Select(tiled, sim.DefaultConfig(0), in, pred, SelectIf)
	SelectIndependent(indep, in, pred)
	ratio := indep.Seconds() / tiled.Seconds()
	if ratio < 5 || ratio > 15 {
		t.Errorf("independent/tiled ratio = %.1f, paper reports ~9x", ratio)
	}
}

func TestProjectCorrectness(t *testing.T) {
	const n = 10_000
	x1 := make([]float32, n)
	x2 := make([]float32, n)
	for i := range x1 {
		x1[i], x2[i] = float32(i), float32(2*i)
	}
	clk := newClock()
	out := Project(clk, sim.DefaultConfig(0), x1, x2, 2, 3)
	for i := range out {
		want := 2*x1[i] + 3*x2[i]
		if out[i] != want {
			t.Fatalf("project[%d] = %f, want %f", i, out[i], want)
		}
	}
	// Traffic: 2 column reads + 1 write.
	p := clk.Passes()[0]
	if p.BytesRead != 8*n || p.BytesWritten != 4*n {
		t.Errorf("project traffic read=%d write=%d", p.BytesRead, p.BytesWritten)
	}
}

func TestProjectSigmoidBounds(t *testing.T) {
	x1 := []float32{-100, 0, 100}
	x2 := []float32{0, 0, 0}
	clk := newClock()
	out := ProjectSigmoid(clk, sim.DefaultConfig(0), x1, x2, 1, 1)
	if !(out[0] < 0.01 && out[1] == 0.5 && out[2] > 0.99) {
		t.Errorf("sigmoid values wrong: %v", out)
	}
}

func TestBuildAndProbeSum(t *testing.T) {
	const nBuild, nProbe = 1 << 12, 1 << 16
	bk := make([]int32, nBuild)
	bv := make([]int32, nBuild)
	for i := range bk {
		bk[i], bv[i] = int32(i+1), int32(10*i)
	}
	clk := newClock()
	ht := BuildHashTable(clk, bk, bv, 0.5)

	pk := make([]int32, nProbe)
	pv := make([]int32, nProbe)
	rng := rand.New(rand.NewSource(4))
	var want int64
	for i := range pk {
		pk[i] = int32(rng.Intn(2 * nBuild)) // half the probes miss
		pv[i] = int32(i)
		if pk[i] >= 1 && pk[i] <= nBuild {
			want += int64(pv[i]) + int64(10*(pk[i]-1))
		}
	}
	got := ProbeSum(clk, sim.DefaultConfig(0), pk, pv, ht)
	if got != want {
		t.Fatalf("probe checksum = %d, want %d", got, want)
	}
}

func TestBuildHashTableBytes(t *testing.T) {
	clk := newClock()
	ht := BuildHashTableBytes(clk, 1<<20, func(i int) int32 { return int32(i + 1) }, func(i int) int32 { return int32(i) })
	if ht.Bytes() != 1<<20 {
		t.Errorf("footprint = %d, want 1MB", ht.Bytes())
	}
	if v, ok := ht.Get(1); !ok || v != 0 {
		t.Error("built table missing key 1")
	}
}

func TestJoinTimeStaircase(t *testing.T) {
	// Figure 13: probe time steps up as the hash table outgrows L2 and DRAM
	// lines start to be fetched per probe.
	const nProbe = 1 << 20
	pk := make([]int32, nProbe)
	pv := make([]int32, nProbe)
	rng := rand.New(rand.NewSource(5))
	times := map[int64]float64{}
	for _, htBytes := range []int64{64 << 10, 2 << 20, 64 << 20} {
		clk := newClock()
		ht := BuildHashTableBytes(clk, htBytes, func(i int) int32 { return int32(i + 1) }, func(i int) int32 { return int32(i) })
		nKeys := ht.Capacity() / 2
		for i := range pk {
			pk[i] = int32(rng.Intn(nKeys) + 1)
			pv[i] = 1
		}
		probeClk := newClock()
		ProbeSum(probeClk, sim.DefaultConfig(0), pk, pv, ht)
		times[htBytes] = probeClk.Seconds()
	}
	if !(times[64<<10] < times[2<<20] && times[2<<20] < times[64<<20]) {
		t.Errorf("join staircase violated: %v", times)
	}
}

func TestRadixPartitionStable(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(6))
	keys := make([]uint32, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = rng.Uint32() % 1024
		vals[i] = int32(i) // original index: lets us verify stability
	}
	clk := newClock()
	outK, outV, counts, err := RadixPartition(clk, sim.DefaultConfig(0), keys, vals, 4, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, keys, outK, outV, counts, 4, 0, true)
}

func TestRadixPartitionUnstable(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint32, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = rng.Uint32()
		vals[i] = int32(i)
	}
	clk := newClock()
	outK, outV, counts, err := RadixPartition(clk, sim.DefaultConfig(0), keys, vals, 8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, keys, outK, outV, counts, 8, 8, false)
}

// checkPartition verifies output is a permutation, partitions are
// contiguous in radix order, and (for stable) input order is preserved
// within partitions.
func checkPartition(t *testing.T, keys []uint32, outK []uint32, outV []int32, counts []int64, r, shift int, stable bool) {
	t.Helper()
	_ = outK
	mask := uint32((1 << r) - 1)
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != int64(len(keys)) {
		t.Fatalf("counts sum to %d, want %d", total, len(keys))
	}
	seen := make([]bool, len(keys))
	pos := 0
	for p := uint32(0); p < uint32(1<<r); p++ {
		prevIdx := int32(-1)
		for c := int64(0); c < counts[p]; c++ {
			idx := outV[pos]
			if seen[idx] {
				t.Fatalf("element %d appears twice", idx)
			}
			seen[idx] = true
			if got := (keys[idx] >> shift) & mask; got != p {
				t.Fatalf("element %d in partition %d has radix %d", idx, p, got)
			}
			if stable && idx <= prevIdx {
				t.Fatalf("stability violated in partition %d: %d after %d", p, idx, prevIdx)
			}
			prevIdx = idx
			pos++
		}
	}
}

func TestRadixPartitionBitLimits(t *testing.T) {
	keys := []uint32{1, 2, 3}
	clk := newClock()
	if _, _, _, err := RadixPartition(clk, sim.DefaultConfig(0), keys, nil, 8, 0, true); err == nil {
		t.Error("stable 8-bit pass should be rejected (7-bit register limit)")
	}
	if _, _, _, err := RadixPartition(clk, sim.DefaultConfig(0), keys, nil, 9, 0, false); err == nil {
		t.Error("unstable 9-bit pass should be rejected")
	}
	if _, _, _, err := RadixPartition(clk, sim.DefaultConfig(0), keys, nil, 0, 0, false); err == nil {
		t.Error("0-bit pass should be rejected")
	}
	if _, _, _, err := RadixPartition(clk, sim.DefaultConfig(0), keys, nil, 7, 0, true); err != nil {
		t.Errorf("7-bit stable pass rejected: %v", err)
	}
}

func TestMSBRadixSort(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(8))
	keys := make([]uint32, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = rng.Uint32()
		vals[i] = int32(i)
	}
	clk := newClock()
	outK, outV := MSBRadixSort(clk, sim.DefaultConfig(0), keys, vals)
	for i := 1; i < n; i++ {
		if outK[i-1] > outK[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
	// Permutation check via payloads, and key/payload pairing preserved.
	seen := make([]bool, n)
	for i := range outK {
		idx := outV[i]
		if seen[idx] {
			t.Fatalf("payload %d duplicated", idx)
		}
		seen[idx] = true
		if keys[idx] != outK[i] {
			t.Fatalf("key/payload pairing broken at %d", i)
		}
	}
	// 4 levels x 2 kernels charged.
	if got := len(clk.Passes()); got != 8 {
		t.Errorf("MSB sort charged %d passes, want 8", got)
	}
}

func TestMSBRadixSortProperty(t *testing.T) {
	f := func(keys []uint32) bool {
		clk := newClock()
		outK, _ := MSBRadixSort(clk, sim.DefaultConfig(0), keys, nil)
		want := append([]uint32(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if outK[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSelectVariantsIdenticalOnGPU(t *testing.T) {
	// Figure 12: GPU If and GPU Pred are indistinguishable.
	in := make([]int32, 1<<18)
	rng := rand.New(rand.NewSource(9))
	for i := range in {
		in[i] = int32(rng.Intn(100))
	}
	pred := func(v int32) bool { return v < 50 }
	c1, c2 := newClock(), newClock()
	Select(c1, sim.DefaultConfig(0), in, pred, SelectIf)
	Select(c2, sim.DefaultConfig(0), in, pred, SelectPred)
	if c1.Seconds() != c2.Seconds() {
		t.Errorf("GPU If %.6f != GPU Pred %.6f", c1.Seconds(), c2.Seconds())
	}
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

var _ = crystal.EmptyKey // keep import if unused in some builds

func TestSelectCorrectAcrossTileConfigs(t *testing.T) {
	// The kernel must be correct for every tile geometry of Figure 9,
	// including ones that leave partial tiles and idle threads.
	rng := rand.New(rand.NewSource(77))
	in := make([]int32, 10_007) // prime-ish: guarantees ragged final tiles
	for i := range in {
		in[i] = int32(rng.Intn(100))
	}
	pred := func(v int32) bool { return v%3 == 0 }
	want := refSelect(in, pred)
	for _, bs := range []int{32, 64, 128, 256, 512, 1024} {
		for _, ipt := range []int{1, 2, 4} {
			cfg := sim.Config{Threads: bs, ItemsPerThread: ipt}
			got := Select(newClock(), cfg, in, pred, SelectIf)
			if len(got) != len(want) {
				t.Fatalf("cfg %dx%d: %d rows, want %d", bs, ipt, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cfg %dx%d: row %d mismatch", bs, ipt, i)
				}
			}
		}
	}
}
