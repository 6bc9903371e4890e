package queries

import (
	"fmt"

	"crystal/internal/crystal"
	"crystal/internal/device"
	"crystal/internal/sim"
)

// gpuConfig is the tile configuration the SSB evaluation uses (Section 5.2:
// thread block 256 with 8 items per thread, tile size 2048). The tile size
// equals ssb.MorselAlign, so a morsel is always a whole number of tiles and
// zone-map pruning maps exactly onto skipping thread blocks.
func gpuConfig(elems int) sim.Config {
	return sim.Config{Threads: 256, ItemsPerThread: 8, Elems: elems}
}

// gpuLineBytes is the DRAM transaction pipeStats.lines128 counts in: the
// V100's line, the granularity of a selective tile load.
const gpuLineBytes = 128

// priceGPU returns the simulated seconds of the compiled plan on the paper's
// "Standalone GPU" device dev, given the access statistics of its scan pass:
// the full query as a single tile-based Crystal kernel (Section 5.2). Each
// thread block loads a tile of the fact table, evaluates the selections with
// BlockPred, probes the join hash tables in a pipeline with BlockLookup, and
// updates the global aggregate — the fact columns are read from global
// memory exactly once, selectively, and nothing is materialized in between.
//
// The launch covers the full grid; blocks whose tile sits in a pruned morsel
// (or, on a fleet device, outside its shard) return before touching global
// memory, so the pass carries only the scanned tiles' traffic: the first read
// loads whole tiles, every later read the 128 B lines its selected rows
// touch; one probe per selected key into each join's table, in join order;
// one probe per surviving row into the modelled aggregation table when the
// statement groups, and otherwise one atomic per accumulator slot for every
// tile whose block-local accumulator moved.
func (p *Plan) priceGPU(dev *device.Spec, st *pipeStats) float64 {
	if dev.LineSize != gpuLineBytes {
		panic(fmt.Sprintf("queries: GPU pricing meters %d B lines, device %s has %d B lines", gpuLineBytes, dev.Name, dev.LineSize))
	}
	q := &p.Query
	clk := device.NewClock(dev)
	chargeBuilds(clk, p.builds)
	pass := sim.LaunchPass(dev, gpuConfig(int(st.totalRows)))
	pass.Label = "gpu probe pipeline " + q.ID
	for s, col := range st.colOrder {
		switch {
		case s > 0:
			pass.BytesRead += st.lines128[s] * gpuLineBytes
		case st.packed:
			pass.BytesRead += st.scanBytes[col]
		default:
			pass.BytesRead += st.rows * 4
		}
	}
	for ji := range p.builds {
		pass.AddProbes(device.ProbeSet{Count: st.probes[ji], StructBytes: p.builds[ji].htBytes})
	}
	if p.agg.groups > 0 {
		pass.AddProbes(device.ProbeSet{Count: st.out, StructBytes: crystal.MultiAggTableBytes(aggEstimate(*q), p.agg.slots())})
	}
	pass.AtomicOps = st.atomicTiles * int64(p.agg.slots())
	clk.Charge(&pass)
	return clk.Seconds()
}
