package gpu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"crystal/internal/cpu"
	"crystal/internal/device"
	"crystal/internal/sim"
)

// widen returns keys as uint64 so one table can compare both key widths.
func widen[K uint32 | uint64](keys []K, err error) ([]uint64, error) {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = uint64(k)
	}
	return out, err
}

// keysOf drops a sort's payload.
func keysOf[K uint32 | uint64](keys []K, _ []int32) []K { return keys }

// caught runs a sort and returns the keys it produced, or the value it
// panicked with as an error.
func caught[K uint32 | uint64](sort func() []K) (keys []uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return widen(sort(), nil)
}

// TestRadixPayloadLength: every radix entry point on both devices rejects a
// payload that is present but not one value per key (the partitions with
// their error, the sorts by panicking on the caller's goroutine) and takes
// an empty payload, nil or not, as keys alone.
func TestRadixPayloadLength(t *testing.T) {
	k32, k64 := []uint32{5, 3, 9}, []uint64{5, 3, 9}
	cfg := sim.DefaultConfig(0)
	gclk := func() *device.Clock { return device.NewClock(device.V100()) }
	cclk := func() *device.Clock { return device.NewClock(device.I76900()) }
	cases := []struct {
		name string
		run  func(vals []int32) ([]uint64, error)
	}{
		{"gpu partition32 stable", func(v []int32) ([]uint64, error) {
			k, _, _, err := RadixPartition(gclk(), cfg, k32, v, 4, 0, true)
			return widen(k, err)
		}},
		{"gpu partition32 unstable", func(v []int32) ([]uint64, error) {
			k, _, _, err := RadixPartition(gclk(), cfg, k32, v, 4, 0, false)
			return widen(k, err)
		}},
		{"gpu partition64", func(v []int32) ([]uint64, error) {
			k, _, _, err := RadixPartition(gclk(), cfg, k64, v, 4, 0, true)
			return widen(k, err)
		}},
		{"cpu partition", func(v []int32) ([]uint64, error) {
			k, _, _, err := cpu.RadixPartition(cclk(), k32, v, 4, 0)
			return widen(k, err)
		}},
		{"gpu lsb32", func(v []int32) ([]uint64, error) {
			return caught(func() []uint32 { return keysOf(LSBRadixSort(gclk(), cfg, k32, v)) })
		}},
		{"gpu lsb64", func(v []int32) ([]uint64, error) {
			return caught(func() []uint64 { return keysOf(LSBRadixSort64(gclk(), cfg, k64, v, 20)) })
		}},
		{"gpu msb32", func(v []int32) ([]uint64, error) {
			return caught(func() []uint32 { return keysOf(MSBRadixSort(gclk(), cfg, k32, v)) })
		}},
		{"cpu lsb", func(v []int32) ([]uint64, error) {
			return caught(func() []uint32 { return keysOf(cpu.LSBRadixSort(cclk(), k32, v)) })
		}},
	}
	want := []uint64{3, 5, 9}
	for _, c := range cases {
		for _, vals := range [][]int32{{7}, {1, 2, 3, 4}} {
			if _, err := c.run(vals); err == nil || !strings.Contains(err.Error(), "payload") {
				t.Errorf("%s with %d values for 3 keys: err %v, want a payload error", c.name, len(vals), err)
			}
		}
		for _, vals := range [][]int32{nil, {}, {1, 2, 3}} {
			got, err := c.run(vals)
			if err != nil || !slices.Equal(got, want) {
				t.Errorf("%s with %d values for 3 keys: %v, %v; want %v", c.name, len(vals), got, err, want)
			}
		}
	}
}

// TestRadixPartitionAllocatesPerLaunch: a pass allocates its outputs, one
// histogram matrix and one scratch tile set per worker and launch, so a
// grid of 128 blocks allocates about as often as one of 8 (a per-block
// tile would add hundreds).
func TestRadixPartitionAllocatesPerLaunch(t *testing.T) {
	allocs := func(n int, stable bool) float64 {
		keys, vals := goldenInputs[uint64](n, 64)
		return testing.AllocsPerRun(3, func() {
			if _, _, _, err := RadixPartition(device.NewClock(device.V100()), sim.DefaultConfig(0), keys, vals, 7, 0, stable); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, stable := range []bool{true, false} {
		if small, large := allocs(1<<12, stable), allocs(1<<16, stable); large > small+4 {
			t.Errorf("stable=%v: 8 blocks allocate %.0f times, 128 blocks %.0f", stable, small, large)
		}
	}
}
