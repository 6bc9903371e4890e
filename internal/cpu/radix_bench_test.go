package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"crystal/internal/device"
)

// BenchmarkRadixPartition is one stable partitioning pass over 2^20
// (key, value) pairs on either side of the write-combining knee of Figure
// 14b: 8 bits fit the buffers in L1, 11 do not.
func BenchmarkRadixPartition(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(2))
	keys, vals := make([]uint32, n), make([]int32, n)
	for i := range keys {
		keys[i], vals[i] = rng.Uint32(), int32(i)
	}
	for _, r := range []int{8, 11} {
		b.Run(fmt.Sprintf("bits=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := RadixPartition(device.NewClock(device.I76900()), keys, vals, r, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
		})
	}
}
