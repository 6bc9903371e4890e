// Package gpu implements the paper's GPU-side query operators on top of the
// Crystal block-wide functions: selection (tiled single-kernel and the
// independent-threads baseline of Figure 4a), projection, hash join, radix
// partitioning and MSB radix sort, plus the full-query kernels used by the
// SSB evaluation in internal/queries.
//
// Every operator executes functionally on real data through internal/sim
// and charges its memory traffic to a device.Clock, which prices it with
// the V100 model.
package gpu

import (
	"crystal/internal/crystal"
	"crystal/internal/device"
	"crystal/internal/sim"
)

// SelectVariant selects between the branching and predicated forms of the
// selection kernel. On the GPU the two are indistinguishable: a mispredicted
// branch does not stall the SIMT pipeline (Section 4.2, Figure 12).
type SelectVariant int

const (
	// SelectIf implements the selection with an if-statement.
	SelectIf SelectVariant = iota
	// SelectPred implements the selection with branch-free predication.
	SelectPred
)

// Select runs the tile-based selection kernel of Figure 4(b)/Figure 8 on
// in, returning the matching entries in stable order. It is the Crystal
// form of query Q0/Q3: one kernel, one pass over the input, coalesced
// output writes, one global atomic per thread block.
func Select(clk *device.Clock, cfg sim.Config, in []int32, pred func(int32) bool, _ SelectVariant) []int32 {
	cfg.Elems = len(in)
	out := make([]int32, len(in))
	var cursor sim.Counter

	// Stable output requires blocks to claim output ranges in block order;
	// real Crystal kernels emit in block-arrival order. We keep per-block
	// results and concatenate in block order afterwards so tests can check
	// stability; traffic and atomics are metered exactly as the kernel's.
	blockOut := make([][]int32, cfg.NumBlocks())

	pass := sim.Run(clk.Spec(), cfg, func(b *sim.Block) {
		ts := cfg.TileSize()
		items := make([]int32, ts)
		bitmap := make([]uint8, ts)
		indices := make([]int32, ts)
		shuffled := make([]int32, ts)

		n := crystal.BlockLoad(b, in, items)
		crystal.BlockPred(b, items, n, pred, bitmap)
		total := crystal.BlockScan(b, bitmap, n, indices)
		if total == 0 {
			return
		}
		b.AtomicAdd(&cursor, int64(total)) // claim output range
		crystal.BlockShuffle(b, items, bitmap, indices, n, shuffled)
		// Coalesced store: charge the write; the actual placement is done
		// in block order below.
		b.Pass().BytesWritten += int64(total) * 4
		blockOut[b.ID] = append([]int32(nil), shuffled[:total]...)
	})
	clk.Charge(pass)

	res := out[:0]
	for _, bo := range blockOut {
		res = append(res, bo...)
	}
	return res
}

// SelectIndependent runs the pre-Crystal, independent-threads selection of
// Figure 4(a): three kernels (count, prefix sum, write), two full reads of
// the input column, intermediate count/prefix arrays, and uncoalesced
// per-thread output writes. It exists as the baseline for the Section 3.3
// microbenchmark (19 ms vs 2.1 ms) and as the execution style of the
// Omnisci-like engine.
func SelectIndependent(clk *device.Clock, in []int32, pred func(int32) bool) []int32 {
	n := len(in)
	// The real implementation launches ~thousands of threads, each scanning
	// a stride. T is the logical thread count.
	const T = 5000
	counts := make([]int32, T)

	// Kernel 1: strided read, count matches per thread.
	k1 := &device.Pass{Label: "k1 count", BytesRead: int64(n) * 4, Kernels: 1}
	for t := 0; t < T; t++ {
		c := int32(0)
		for i := t; i < n; i += T {
			if pred(in[i]) {
				c++
			}
		}
		counts[t] = c
	}
	k1.BytesWritten += int64(T) * 4
	clk.Charge(k1)

	// Kernel 2: prefix sum over the per-thread counts (Thrust-style).
	pf := make([]int32, T+1)
	for t := 0; t < T; t++ {
		pf[t+1] = pf[t] + counts[t]
	}
	clk.Charge(&device.Pass{Label: "k2 prefix", BytesRead: int64(T) * 4, BytesWritten: int64(T) * 4, Kernels: 1})

	// Kernel 3: second full read; each thread writes its matches at its
	// prefix offset — writes from different threads interleave arbitrarily,
	// so none coalesce.
	out := make([]int32, pf[T])
	k3 := &device.Pass{Label: "k3 write", BytesRead: int64(n) * 4, Kernels: 1}
	for t := 0; t < T; t++ {
		o := pf[t]
		for i := t; i < n; i += T {
			if pred(in[i]) {
				out[o] = in[i]
				o++
			}
		}
	}
	k3.RandomWrites = int64(pf[T])
	clk.Charge(k3)
	return out
}
