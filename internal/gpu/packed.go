package gpu

import (
	"crystal/internal/device"
	"crystal/internal/pack"
	"crystal/internal/sim"
)

// SelectPacked runs the tiled selection kernel over a bit-packed column
// (the Section 5.5 compression extension). Each thread block loads its
// tile's share of the packed words — width/32 of the plain traffic — and
// unpacks in registers. The V100's compute-to-bandwidth ratio keeps the
// kernel bandwidth bound, so the traffic saving translates directly into
// runtime. The full-query engines decode packed frames a tile at a time in
// their scan kernel (queries.RunOptions.Partition.Packed); this operator is
// the isolated kernel-level form (BenchmarkAblation_PackedScan).
func SelectPacked(clk *device.Clock, cfg sim.Config, col *pack.Column, pred func(int32) bool) []int32 {
	cfg.Elems = col.Len()
	blockOut := make([][]int32, cfg.NumBlocks())
	var cursor sim.Counter

	pass := sim.Run(clk.Spec(), cfg, func(b *sim.Block) {
		ts := cfg.TileSize()
		items := make([]int32, ts)
		n := col.UnpackRange(b.Offset, b.Offset+b.TileElems, items)
		// Packed tile traffic: n values at width bits, rounded to words.
		b.Pass().BytesRead += (int64(n)*int64(col.Width()) + 63) / 64 * 8
		// Unpacking is register arithmetic; the GPU's 14 TFlops absorb it.

		out := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			if pred(items[i]) {
				out = append(out, items[i])
			}
		}
		if len(out) == 0 {
			return
		}
		b.AtomicAdd(&cursor, int64(len(out)))
		b.Pass().BytesWritten += int64(len(out)) * 4
		blockOut[b.ID] = out
	})
	pass.Label = "gpu packed select"
	clk.Charge(pass)

	var res []int32
	for _, bo := range blockOut {
		res = append(res, bo...)
	}
	return res
}
