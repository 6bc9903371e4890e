// Package repro_test holds the top-level benchmark harness: one testing.B
// benchmark per table and figure in the paper's evaluation. Each iteration
// executes the experiment functionally on a reduced input and reports the
// simulated device time (extrapolated to the paper's input size) as the
// custom metric "simMs" — wall-clock ns/op measures the simulator itself,
// simMs is the reproduced result. The cmd/microbench and cmd/ssbench tools
// print the same experiments as full tables.
package repro_test

import (
	"math/rand"
	"sync"
	"testing"

	"crystal/internal/bench"
	"crystal/internal/cpu"
	"crystal/internal/device"
	"crystal/internal/gpu"
	"crystal/internal/model"
	"crystal/internal/queries"
	"crystal/internal/sim"
	"crystal/internal/ssb"
)

const (
	benchN     = 1 << 20        // functional elements per microbenchmark
	paperN     = int64(1) << 28 // projection/selection paper size
	paperJoinN = int64(256) << 20
)

var (
	dsOnce  sync.Once
	benchDS *ssb.Dataset
)

func ssbData() *ssb.Dataset {
	dsOnce.Do(func() { benchDS = ssb.GenerateRows(1 << 17) })
	return benchDS
}

func randCol(n int, limit int32, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = rng.Int31n(limit)
	}
	return out
}

// BenchmarkFig3_Coprocessor runs the Figure 3 experiment: all 13 SSB
// queries on the MonetDB stand-in, the GPU coprocessor and the Hyper
// stand-in; simMs is the summed simulated time of the three engines.
func BenchmarkFig3_Coprocessor(b *testing.B) {
	ds := ssbData()
	engines := []queries.Engine{queries.EngineMonet, queries.EngineCoproc, queries.EngineHyper}
	var simMs float64
	for i := 0; i < b.N; i++ {
		simMs = 0
		for _, q := range queries.All() {
			for _, e := range engines {
				simMs += queries.Compile(ds, q).Run(e).Milliseconds()
			}
		}
	}
	b.ReportMetric(simMs, "simMs")
}

// BenchmarkFig9_TileConfig sweeps the Q0 tile configuration (Figure 9) and
// reports the best configuration's simulated ms at 2^28 elements.
func BenchmarkFig9_TileConfig(b *testing.B) {
	in := randCol(benchN, 1000, 1)
	pred := func(v int32) bool { return v < 500 }
	best := 0.0
	for i := 0; i < b.N; i++ {
		best = 0
		for _, bs := range []int{32, 64, 128, 256, 512, 1024} {
			for _, ipt := range []int{1, 2, 4} {
				clk := device.NewClock(device.V100())
				gpu.Select(clk, sim.Config{Threads: bs, ItemsPerThread: ipt}, in, pred, gpu.SelectIf)
				t := bench.MS(bench.ScaleClock(clk, benchN, paperN))
				if best == 0 || t < best {
					best = t
				}
			}
		}
	}
	b.ReportMetric(best, "simMs")
}

// BenchmarkSec33_TiledVsIndependent reproduces the Section 3.3 comparison;
// simMs reports the independent-threads/Crystal ratio (paper: ~9x).
func BenchmarkSec33_TiledVsIndependent(b *testing.B) {
	in := randCol(benchN, 1000, 2)
	pred := func(v int32) bool { return v < 500 }
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		tiled, indep := device.NewClock(device.V100()), device.NewClock(device.V100())
		gpu.Select(tiled, sim.DefaultConfig(0), in, pred, gpu.SelectIf)
		gpu.SelectIndependent(indep, in, pred)
		ratio = bench.ScaleClock(indep, benchN, paperN) / bench.ScaleClock(tiled, benchN, paperN)
	}
	b.ReportMetric(ratio, "speedup")
}

// BenchmarkFig10_Project runs the Q1/Q2 projection microbenchmark on CPU,
// CPU-Opt and GPU; simMs is the GPU Q1 time at paper scale (paper: 3.9).
func BenchmarkFig10_Project(b *testing.B) {
	x1 := make([]float32, benchN)
	x2 := make([]float32, benchN)
	rng := rand.New(rand.NewSource(3))
	for i := range x1 {
		x1[i], x2[i] = rng.Float32(), rng.Float32()
	}
	var gpuMS float64
	for i := 0; i < b.N; i++ {
		c1 := device.NewClock(device.I76900())
		cpu.Project(c1, x1, x2, 2, 3, cpu.ProjectNaive)
		c2 := device.NewClock(device.I76900())
		cpu.ProjectSigmoid(c2, x1, x2, 2, 3, cpu.ProjectOpt)
		c3 := device.NewClock(device.V100())
		gpu.Project(c3, sim.DefaultConfig(0), x1, x2, 2, 3)
		gpuMS = bench.MS(bench.ScaleClock(c3, benchN, paperN))
	}
	b.ReportMetric(gpuMS, "simMs")
}

// BenchmarkFig12_Select sweeps selectivity for all five selection variants
// (Figure 12); simMs reports the mean CPU/GPU ratio (paper: 15.8).
func BenchmarkFig12_Select(b *testing.B) {
	in := randCol(benchN, 1000, 4)
	sigmas := []float64{0.1, 0.5, 0.9}
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, s := range sigmas {
			cut := int32(s * 1000)
			pred := func(v int32) bool { return v < cut }
			cclk := device.NewClock(device.I76900())
			cpu.Select(cclk, in, pred, cpu.SelectSIMDPred)
			gclk := device.NewClock(device.V100())
			gpu.Select(gclk, sim.DefaultConfig(0), in, pred, gpu.SelectPred)
			sum += bench.ScaleClock(cclk, benchN, paperN) / bench.ScaleClock(gclk, benchN, paperN)
		}
		ratio = sum / float64(len(sigmas))
	}
	b.ReportMetric(ratio, "speedup")
}

// BenchmarkFig13_Join sweeps the hash-table size across the cache
// boundaries (Figure 13); simMs reports the out-of-cache CPU/GPU ratio
// (paper: ~10.5x).
func BenchmarkFig13_Join(b *testing.B) {
	const nProbe = benchN
	pk := make([]int32, nProbe)
	pv := make([]int32, nProbe)
	rng := rand.New(rand.NewSource(5))
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		for _, htBytes := range []int64{128 << 10, 2 << 20, 256 << 20} {
			gclk := device.NewClock(device.V100())
			ht := gpu.BuildHashTableBytes(gclk, htBytes,
				func(i int) int32 { return int32(i + 1) }, func(i int) int32 { return int32(i) })
			nKeys := ht.Capacity() / 2
			for j := range pk {
				pk[j] = int32(rng.Intn(nKeys) + 1)
			}
			cclk := device.NewClock(device.I76900())
			cpu.ProbeSum(cclk, pk, pv, ht, cpu.JoinScalar)
			probe := device.NewClock(device.V100())
			gpu.ProbeSum(probe, sim.DefaultConfig(0), pk, pv, ht)
			ratio = bench.ScaleClock(cclk, benchN, paperJoinN) / bench.ScaleClock(probe, benchN, paperJoinN)
		}
	}
	b.ReportMetric(ratio, "speedup")
}

// BenchmarkFig14_RadixPartition runs the histogram and shuffle phases at
// r=8 on all three variants (Figure 14); simMs is the CPU shuffle time at
// 256M entries.
func BenchmarkFig14_RadixPartition(b *testing.B) {
	keys := make([]uint32, benchN)
	vals := make([]int32, benchN)
	rng := rand.New(rand.NewSource(6))
	for i := range keys {
		keys[i] = rng.Uint32()
		vals[i] = int32(i)
	}
	var shufMS float64
	for i := 0; i < b.N; i++ {
		cclk := device.NewClock(device.I76900())
		if _, _, _, err := cpu.RadixPartition(cclk, keys, vals, 8, 0); err != nil {
			b.Fatal(err)
		}
		passes := cclk.Passes()
		shufMS = bench.MS(bench.Scale(cclk.Spec().PassTime(&passes[1]), benchN, paperJoinN))
		gclk := device.NewClock(device.V100())
		if _, _, _, err := gpu.RadixPartition(gclk, sim.DefaultConfig(0), keys, vals, 7, 0, true); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := gpu.RadixPartition(gclk, sim.DefaultConfig(0), keys, vals, 8, 0, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(shufMS, "simMs")
}

// BenchmarkSec44_Sort reproduces the Section 4.4 sort comparison; simMs
// reports the CPU/GPU speedup (paper: 17.13x).
func BenchmarkSec44_Sort(b *testing.B) {
	keys := make([]uint32, benchN)
	vals := make([]int32, benchN)
	rng := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = rng.Uint32()
		vals[i] = int32(i)
	}
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		cclk := device.NewClock(device.I76900())
		cpu.LSBRadixSort(cclk, keys, vals)
		gclk := device.NewClock(device.V100())
		gpu.MSBRadixSort(gclk, sim.DefaultConfig(0), keys, vals)
		ratio = bench.ScaleClock(cclk, benchN, paperN) / bench.ScaleClock(gclk, benchN, paperN)
	}
	b.ReportMetric(ratio, "speedup")
}

// BenchmarkFig16_SSB runs all 13 SSB queries on the four standalone
// engines (Figure 16); simMs reports the mean CPU/GPU speedup (paper: 25x).
func BenchmarkFig16_SSB(b *testing.B) {
	ds := ssbData()
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, q := range queries.All() {
			queries.Compile(ds, q).Run(queries.EngineHyper)
			queries.Compile(ds, q).Run(queries.EngineOmnisci)
			cpuT := queries.Compile(ds, q).Run(queries.EngineCPU).Seconds
			gpuT := queries.Compile(ds, q).Run(queries.EngineGPU).Seconds
			sum += cpuT / gpuT
		}
		ratio = sum / 13
	}
	b.ReportMetric(ratio, "speedup")
}

// BenchmarkSec53_Query21 runs the q2.1 case study and reports the measured
// GPU simMs next to its analytic model.
func BenchmarkSec53_Query21(b *testing.B) {
	ds := ssbData()
	q, err := queries.ByID("q2.1")
	if err != nil {
		b.Fatal(err)
	}
	var gpuMS float64
	for i := 0; i < b.N; i++ {
		gpuMS = queries.Compile(ds, q).Run(queries.EngineGPU).Milliseconds()
		queries.Compile(ds, q).Run(queries.EngineCPU)
	}
	b.ReportMetric(gpuMS, "simMs")
	b.ReportMetric(bench.MS(model.Query21(device.V100(), model.SF20())), "modelMsSF20")
}

// BenchmarkTable3_Cost reports the Section 5.4 cost-effectiveness figure.
func BenchmarkTable3_Cost(b *testing.B) {
	ds := ssbData()
	eff := 0.0
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, q := range queries.All() {
			ratios = append(ratios, queries.Compile(ds, q).Run(queries.EngineCPU).Seconds/queries.Compile(ds, q).Run(queries.EngineGPU).Seconds)
		}
		var sum float64
		for _, r := range ratios {
			sum += r
		}
		eff = bench.DefaultCost().Effectiveness(sum / float64(len(ratios)))
	}
	b.ReportMetric(eff, "xPerDollar")
}
