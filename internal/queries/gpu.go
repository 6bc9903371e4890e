package queries

import (
	"fmt"
	"sync"

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

// blockSkips maps thread blocks to pruned morsels: skips[id] is true when
// block id's tile lies inside a zone-pruned morsel. Morsel boundaries snap
// to the tile size, so every block belongs to exactly one morsel. Returns
// nil when nothing is pruned (the common case pays no lookup).
func blockSkips(ms *morselRun, tileSize int) []bool {
	if ms.prunedCount() == 0 {
		return nil
	}
	var skips []bool
	for i, m := range ms.morsels {
		if !ms.pruned[i] {
			continue
		}
		hi := (m.Hi + tileSize - 1) / tileSize
		if skips == nil {
			skips = make([]bool, 0, hi)
		}
		for b := m.Lo / tileSize; b < hi; b++ {
			for len(skips) <= b {
				skips = append(skips, false)
			}
			skips[b] = true
		}
	}
	return skips
}

// runGPU executes the compiled plan on the paper's "Standalone GPU": the
// full query compiled into a single tile-based Crystal kernel
// (Section 5.2). Each thread block loads a tile of the fact table,
// evaluates the selections with BlockPred, probes the join hash tables in
// a pipeline with BlockLookup, and updates the global aggregate — the fact
// columns are read from global memory exactly once, selectively, and
// nothing is materialized in between.
//
// The kernel runs over the surviving morsels. The launch covers the full
// grid; blocks whose tile sits in a pruned morsel return
// before touching global memory, so they contribute no traffic — the
// zone-map check itself is host-side metadata work and costs no device
// time. With nothing pruned the launch is bit-identical to the monolithic
// one, which is what keeps partitioned simulated seconds exact.
func (pl *Plan) runGPU(ms *morselRun) *Result {
	return pl.runGPUOn(device.V100(), ms)
}

// runGPUOn is runGPU priced on an explicit device spec: the fleet executor
// runs one launch per fleet device, each covering only that device's shard
// (every other tile is skipped, so a shard charges exactly its own traffic
// plus the one launch — the property multi-device scaling hangs on).
func (pl *Plan) runGPUOn(dev *device.Spec, ms *morselRun) *Result {
	ds, q, builds := pl.ds, pl.Query, pl.builds
	clk := device.NewClock(dev)
	for i := range builds {
		b := &builds[i]
		pass := &device.Pass{Label: "gpu build " + b.spec.Dim, BytesRead: b.bytesRead, Kernels: 1}
		pass.AddProbes(device.ProbeSet{Count: b.inserted, StructBytes: b.ht.Bytes(), Writes: true})
		clk.Charge(pass)
	}

	n := ds.Lineorder.Rows()
	cfg := gpuConfig(n)
	if ms.packed != nil && cfg.TileSize()%ms.packed.FrameRows() != 0 {
		// BlockLoadPacked charges each tile the packed bytes of the frames
		// it overlaps; a tile smaller than a frame would double-charge the
		// frame across tiles. Fail loudly if the two quanta ever diverge.
		panic(fmt.Sprintf("queries: GPU tile size %d is not a multiple of the packed frame size %d",
			cfg.TileSize(), ms.packed.FrameRows()))
	}
	skips := blockSkips(ms, cfg.TileSize())
	filterCols := make([]colReader, len(q.FactFilters))
	for i := range q.FactFilters {
		filterCols[i] = ms.factReader(&ds.Lineorder, q.FactFilters[i].Col)
	}
	fkCols := make([]colReader, len(q.Joins))
	payloadIdx := make([]int, len(q.Joins)) // index into payload registers, -1 = none
	numPayloads := 0
	for i, j := range q.Joins {
		fkCols[i] = ms.factReader(&ds.Lineorder, j.FactFK)
		if j.Payload != "" {
			payloadIdx[i] = numPayloads
			numPayloads++
		} else {
			payloadIdx[i] = -1
		}
	}
	ast := newAggState(&q)
	aggCols := q.AggColumns()
	aggSlices := make([]colReader, len(aggCols))
	for i, c := range aggCols {
		aggSlices[i] = ms.factReader(&ds.Lineorder, c)
	}

	var aggTable *crystal.AggTable
	var scalarSum sim.Counter // used when the query has no group-by (q1.x)
	var multiTable *crystal.MultiAggTable
	var globalAcc []int64 // multi-aggregate global (no group-by) accumulator
	var accMu sync.Mutex
	if ast == nil {
		aggTable = crystal.NewAggTable(aggEstimate(q))
	} else {
		multiTable = crystal.NewMultiAggTable(aggEstimate(q), ast.ops)
		globalAcc = ast.identity()
	}

	pass := sim.RunBounded(clk.Spec(), cfg, func(b *sim.Block) {
		if b.ID < len(skips) && skips[b.ID] {
			return // tile inside a zone-pruned morsel: no loads, no probes
		}
		ts := cfg.TileSize()
		items := make([]int32, ts)
		bitmap := make([]uint8, ts)
		payloads := make([][]int32, numPayloads)
		for i := range payloads {
			payloads[i] = make([]int32, ts)
		}

		nn := b.TileElems
		first := true
		// The first column load reads the full tile; later ones load
		// selectively through the bitmap. On the packed encoding the same
		// pair of primitives reads the tile's frames instead — a tile is
		// exactly one frame (MorselAlign = tile size), so per-block packed
		// traffic merges exactly for any partitioning.
		loadCol := func(cr colReader) int {
			if first {
				first = false
				if cr.packed != nil {
					return crystal.BlockLoadPacked(b, cr.packed, items)
				}
				return crystal.BlockLoad(b, cr.plain, items)
			}
			if cr.packed != nil {
				return crystal.BlockLoadSelPacked(b, cr.packed, bitmap, items)
			}
			return crystal.BlockLoadSel(b, cr.plain, bitmap, items)
		}

		// Selections on the fact table.
		for i := range q.FactFilters {
			f := &q.FactFilters[i]
			m := loadCol(filterCols[i])
			if i == 0 {
				crystal.BlockPred(b, items, m, f.Match, bitmap)
			} else {
				crystal.BlockPredAnd(b, items, m, f.Match, bitmap)
			}
		}
		if len(q.FactFilters) == 0 {
			for i := 0; i < nn; i++ {
				bitmap[i] = 1
			}
		}

		// Pipelined join probes.
		for ji := range q.Joins {
			m := loadCol(fkCols[ji])
			var vals []int32
			if pi := payloadIdx[ji]; pi >= 0 {
				vals = payloads[pi]
			}
			crystal.BlockLookup(b, builds[ji].ht, items, m, bitmap, vals, false)
		}

		// Aggregate inputs. Multi-aggregate statements load every referenced
		// column's tile, then build per-row slot-delta vectors for the
		// multi-accumulator table; the legacy single-SUM path below is
		// untouched so its traffic stays bit-identical.
		if ast != nil {
			colVals := make([][]int32, len(aggCols))
			for ci := range aggCols {
				colVals[ci] = make([]int32, ts)
				m := loadCol(aggSlices[ci])
				copy(colVals[ci][:m], items[:m])
			}
			rowVals := make([]int32, len(aggCols))
			if numPayloads == 0 {
				// Hierarchical block reduction: merge rows into block-local
				// slots, then one global atomic per slot per block.
				local := ast.identity()
				row := make([]int64, ast.slots())
				updated := false
				for i := 0; i < nn; i++ {
					if bitmap[i] == 0 {
						continue
					}
					for ci := range aggCols {
						rowVals[ci] = colVals[ci][i]
					}
					ast.rowDeltas(rowVals, row)
					ast.merge(local, row)
					updated = true
				}
				if updated {
					b.Pass().AtomicOps += int64(ast.slots())
					accMu.Lock()
					ast.merge(globalAcc, local)
					accMu.Unlock()
				}
				return
			}
			keys := make([]int64, ts)
			rowDeltas := make([][]int64, ts)
			pvals := make([]int32, numPayloads)
			for i := 0; i < nn; i++ {
				if bitmap[i] == 0 {
					continue
				}
				for pi := 0; pi < numPayloads; pi++ {
					pvals[pi] = payloads[pi][i]
				}
				keys[i] = PackGroup(pvals)
				for ci := range aggCols {
					rowVals[ci] = colVals[ci][i]
				}
				d := make([]int64, ast.slots())
				ast.rowDeltas(rowVals, d)
				rowDeltas[i] = d
			}
			crystal.BlockMultiAggUpdate(b, multiTable, keys, rowDeltas, bitmap, nn)
			return
		}
		deltas := make([]int64, ts)
		for ci := range aggCols {
			m := loadCol(aggSlices[ci])
			for i := 0; i < m; i++ {
				if bitmap[i] == 0 {
					continue
				}
				switch {
				case ci == 0 && q.Agg == AggSumRevenue:
					deltas[i] = int64(items[i])
				case ci == 0:
					deltas[i] = int64(items[i])
				case q.Agg == AggSumExtDisc:
					deltas[i] *= int64(items[i])
				case q.Agg == AggSumProfit:
					deltas[i] -= int64(items[i])
				}
			}
		}

		if numPayloads == 0 {
			// q1.x: hierarchical block reduction, one atomic per block.
			var local int64
			for i := 0; i < nn; i++ {
				if bitmap[i] != 0 {
					local += deltas[i]
				}
			}
			if local != 0 {
				b.AtomicAdd(&scalarSum, local)
			}
			return
		}
		keys := make([]int64, ts)
		vals := make([]int32, numPayloads)
		for i := 0; i < nn; i++ {
			if bitmap[i] == 0 {
				continue
			}
			for pi := 0; pi < numPayloads; pi++ {
				vals[pi] = payloads[pi][i]
			}
			keys[i] = PackGroup(vals)
		}
		crystal.BlockAggUpdate(b, aggTable, keys, deltas, bitmap, nn)
	}, ms.lim)
	pass.Label = "gpu probe pipeline " + q.ID
	clk.Charge(pass)

	res := &Result{QueryID: q.ID, Groups: map[int64]int64{}}
	switch {
	case ast != nil && numPayloads == 0:
		res.accs = map[int64][]int64{0: globalAcc}
	case ast != nil:
		res.accs = map[int64][]int64{}
		multiTable.Each(func(k int64, acc []int64) {
			res.accs[k] = append([]int64(nil), acc...)
		})
	case numPayloads == 0:
		res.Groups[0] = scalarSum.Value()
		// An empty result still has the single global aggregate row.
	default:
		aggTable.Each(func(k, sum int64) { res.Groups[k] = sum })
	}
	res.Seconds = clk.Seconds()
	ms.stamp(res)
	return res
}
