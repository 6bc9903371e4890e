package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"crystal/internal/device"
	"crystal/internal/sim"
)

// BenchmarkRadixSort64 is the ORDER BY sort at the trace probe's shape
// (gpu.radix_sort_ns_per_key): 2^16 keys of 40 significant bits with a row
// index payload, six stable passes.
func BenchmarkRadixSort64(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	keys, vals := make([]uint64, n), make([]int32, n)
	for i := range keys {
		keys[i], vals[i] = uint64(rng.Int63n(1<<40)), int32(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LSBRadixSort64(device.NewClock(device.V100()), sim.DefaultConfig(n), keys, vals, 40)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
}

// BenchmarkRadixPartition is one partitioning pass over 2^20 (key, value)
// pairs at the GPU's two limits (Section 4.4): stable at 7 bits, unstable at
// 8.
func BenchmarkRadixPartition(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(2))
	keys, vals := make([]uint32, n), make([]int32, n)
	for i := range keys {
		keys[i], vals[i] = rng.Uint32(), int32(i)
	}
	for _, c := range []struct {
		r      int
		stable bool
	}{{MaxStableRadixBits, true}, {MaxUnstableRadixBits, false}} {
		b.Run(fmt.Sprintf("stable=%v/bits=%d", c.stable, c.r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := RadixPartition(device.NewClock(device.V100()), sim.DefaultConfig(0), keys, vals, c.r, 0, c.stable); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
		})
	}
}
