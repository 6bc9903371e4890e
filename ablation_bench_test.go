package repro_test

import (
	"math/rand"
	"sync"
	"testing"

	"crystal/internal/bench"
	"crystal/internal/cpu"
	"crystal/internal/crystal"
	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/gpu"
	"crystal/internal/pack"
	"crystal/internal/queries"
	"crystal/internal/sim"
	"crystal/internal/ssb"
)

// Ablation benchmarks: quantify the design choices DESIGN.md calls out by
// toggling one mechanism at a time. Each reports its effect as a ratio.

var (
	sf1Once sync.Once
	sf1DS   *ssb.Dataset
)

// BenchmarkAblation_GPUSortLSBvsMSB quantifies the Section 4.4 structural
// argument: stable LSB partitioning is register-limited to 7 bits and needs
// five passes over 32-bit keys, while unstable MSB partitioning does 8 bits
// in four passes. Reports LSB/MSB simulated-time ratio (expect ~1.3x).
func BenchmarkAblation_GPUSortLSBvsMSB(b *testing.B) {
	keys := make([]uint32, benchN)
	vals := make([]int32, benchN)
	rng := rand.New(rand.NewSource(21))
	for i := range keys {
		keys[i] = rng.Uint32()
		vals[i] = int32(i)
	}
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		lsb := device.NewClock(device.V100())
		gpu.LSBRadixSort(lsb, sim.DefaultConfig(0), keys, vals)
		msb := device.NewClock(device.V100())
		gpu.MSBRadixSort(msb, sim.DefaultConfig(0), keys, vals)
		ratio = lsb.Seconds() / msb.Seconds()
	}
	b.ReportMetric(ratio, "lsb/msb")
}

// BenchmarkAblation_RadixJoinVsNoPartitioning quantifies the Section 4.3
// discussion: for a single join whose hash table exceeds the LLC, the
// partitioned radix join beats the no-partitioning join. Reports
// noPartitioning/radix (expect >1 out of cache).
func BenchmarkAblation_RadixJoinVsNoPartitioning(b *testing.B) {
	// 2^21 build rows -> a 32 MB no-partitioning table, past the 20 MB L3.
	const n = 1 << 21
	bk := make([]int32, n)
	bv := make([]int32, n)
	for i := range bk {
		bk[i], bv[i] = int32(i+1), int32(i)
	}
	pk := make([]int32, n)
	pv := make([]int32, n)
	rng := rand.New(rand.NewSource(22))
	for i := range pk {
		pk[i] = int32(rng.Intn(n) + 1)
	}
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		radix := device.NewClock(device.I76900())
		cpu.RadixJoin(radix, bk, bv, pk, pv, 10)
		noPart := device.NewClock(device.I76900())
		ht := cpu.BuildHashTable(noPart, bk, bv, 0.5)
		cpu.ProbeSum(noPart, pk, pv, ht, cpu.JoinScalar)
		ratio = noPart.Seconds() / radix.Seconds()
	}
	b.ReportMetric(ratio, "noPart/radix")
}

// BenchmarkAblation_DependentProbeLatency toggles the Section 5.3 latency
// wall: the same q2.1-shaped probe pass priced with and without the CPU's
// dependent-probe latency floor. The ratio is the measured-over-model gap
// of the case study (~4-5x).
func BenchmarkAblation_DependentProbeLatency(b *testing.B) {
	pass := &device.Pass{
		BytesRead: 1 << 30, // ~1 GB of fact columns (SF 20 q2.1)
		Probes: []device.ProbeSet{
			{Count: 120e6, StructBytes: 256 << 10, Dependent: true}, // supplier
			{Count: 24e6, StructBytes: 8 << 20, Dependent: true},    // part
			{Count: 1e6, StructBytes: 32 << 10, Dependent: true},    // date
		},
	}
	withWall := device.I76900()
	noWall := device.I76900()
	noWall.DependentProbeNs = 0
	noWall.DependentStall = noWall.RandomStall
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		ratio = withWall.PassTime(pass) / noWall.PassTime(pass)
	}
	b.ReportMetric(ratio, "wall/noWall")
}

// BenchmarkAblation_SelectiveLoads quantifies BlockLoadSel (the
// min(4|L|/C, |L|sigma) term of Section 5.3): global traffic of a selective
// tile load at 1% selectivity vs a full tile load. Reports full/selective
// bytes (the GPU's effective read saving on late pipeline columns).
func BenchmarkAblation_SelectiveLoads(b *testing.B) {
	const n = benchN
	col := make([]int32, n)
	bitmap := make([]uint8, n)
	rng := rand.New(rand.NewSource(23))
	for i := range bitmap {
		if rng.Intn(100) == 0 {
			bitmap[i] = 1
		}
	}
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(n)
		items := make([]int32, cfg.TileSize())
		sel := sim.Run(device.V100(), cfg, func(blk *sim.Block) {
			local := make([]int32, cfg.TileSize())
			crystal.BlockLoadSel(blk, col, bitmap[blk.Offset:blk.Offset+blk.TileElems], local)
		})
		full := sim.Run(device.V100(), cfg, func(blk *sim.Block) {
			local := make([]int32, cfg.TileSize())
			crystal.BlockLoad(blk, col, local)
		})
		_ = items
		ratio = float64(full.BytesRead) / float64(sel.BytesRead)
	}
	b.ReportMetric(ratio, "full/selective")
}

// BenchmarkAblation_WriteCombiningSpill toggles the Figure 14b CPU
// deterioration: shuffle time at r=11 over r=8 (the L1 buffer spill).
func BenchmarkAblation_WriteCombiningSpill(b *testing.B) {
	keys := make([]uint32, benchN)
	vals := make([]int32, benchN)
	rng := rand.New(rand.NewSource(24))
	for i := range keys {
		keys[i] = rng.Uint32()
		vals[i] = int32(i)
	}
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		c8 := device.NewClock(device.I76900())
		if _, _, _, err := cpu.RadixPartition(c8, keys, vals, 8, 0); err != nil {
			b.Fatal(err)
		}
		c11 := device.NewClock(device.I76900())
		if _, _, _, err := cpu.RadixPartition(c11, keys, vals, 11, 0); err != nil {
			b.Fatal(err)
		}
		p8, p11 := c8.Passes(), c11.Passes()
		ratio = c11.Spec().PassTime(&p11[1]) / c8.Spec().PassTime(&p8[1])
	}
	b.ReportMetric(ratio, "r11/r8")
}

// BenchmarkAblation_PackedScan quantifies the Section 5.5 compression
// asymmetry: the speedup of scanning a 10-bit packed column over a plain
// 4-byte column, on each device. The GPU's compute-to-bandwidth ratio keeps
// the packed scan bandwidth bound (speedup ~ compression ratio); the CPU
// tips into compute bound and gains little or loses.
func BenchmarkAblation_PackedScan(b *testing.B) {
	vals := make([]int32, benchN)
	rng := rand.New(rand.NewSource(25))
	for i := range vals {
		vals[i] = rng.Int31n(1024)
	}
	col := pack.New(vals)
	pred := func(v int32) bool { return v < 10 }
	cfg := sim.Config{Threads: 256, ItemsPerThread: 8} // SSB tile config
	var gpuGain, cpuGain float64
	for i := 0; i < b.N; i++ {
		gPlain, gPacked := device.NewClock(device.V100()), device.NewClock(device.V100())
		gpu.Select(gPlain, cfg, vals, pred, gpu.SelectIf)
		gpu.SelectPacked(gPacked, cfg, col, pred)
		gpuGain = bench.ScaleClock(gPlain, benchN, paperN) / bench.ScaleClock(gPacked, benchN, paperN)

		cPlain, cPacked := device.NewClock(device.I76900()), device.NewClock(device.I76900())
		cpu.Select(cPlain, vals, pred, cpu.SelectSIMDPred)
		cpu.SelectPacked(cPacked, col, pred)
		cpuGain = bench.ScaleClock(cPlain, benchN, paperN) / bench.ScaleClock(cPacked, benchN, paperN)
	}
	b.ReportMetric(gpuGain, "gpuGain")
	b.ReportMetric(cpuGain, "cpuGain")
}

// BenchmarkAblation_MultiGPUScaling reports the q2.1 speedup of 4 sharded
// V100s over 1 (Section 5.5 Distributed+Hybrid extension).
func BenchmarkAblation_MultiGPUScaling(b *testing.B) {
	// Needs an SF-1 fact table: with tiny shards the replicated dimension
	// builds and launches dominate and nothing scales.
	sf1Once.Do(func() { sf1DS = ssb.Generate(1) })
	ds := sf1DS
	q, err := queries.ByID("q2.1")
	if err != nil {
		b.Fatal(err)
	}
	plan := queries.Compile(ds, q)
	seconds := func(gpus int) float64 {
		s, err := plan.ScheduleFleet(fleet.Spec{GPUs: gpus, Link: fleet.PCIe()}, queries.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sr, err := plan.RunScheduled(s)
		if err != nil {
			b.Fatal(err)
		}
		return sr.Result.Seconds
	}
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		ratio = seconds(1) / seconds(4)
	}
	b.ReportMetric(ratio, "x4speedup")
}
