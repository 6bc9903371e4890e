package queries

import (
	"fmt"

	"crystal/internal/crystal"
	"crystal/internal/device"
	"crystal/internal/sched"
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

// tileScratch is one thread block's tiles — the registers and shared memory
// of Section 3.3, which a GPU reuses for every tile and never allocates. A
// block takes one from scratchFree on entry and puts it back on return, so a
// launch allocates no tile however many blocks it runs.
//
// A reused scratch holds another tile's values, possibly another query's.
// The kernel may therefore read a slot only if it wrote that slot earlier in
// the same block under the same bitmap: BlockPred writes all m bitmap
// entries (the no-filter branch all nn); a selective load leaves unselected
// slots untouched and nothing reads them; keys[i] and rowDeltas[i] are
// written exactly where bitmap[i] != 0; acc is reset to the merge identities
// before it is merged into. Nothing that outlives the block may alias a
// scratch buffer.
type tileScratch struct {
	items  []int32
	bitmap []uint8
	keys   []int64
	cols   [][]int32 // payload tiles, then the aggregate column tiles
	vals   []int32   // one row's payloads, then its aggregate column values
	// rowDeltas[i] re-slices flat, the tile's ts x slots delta vectors; acc
	// is the block-local accumulator and one row's deltas of the global (no
	// group-by) reduction.
	flat      []int64
	rowDeltas [][]int64
	acc       []int64
}

// reserve sizes the scratch for a tile of ts rows with the given number of
// column tiles and accumulator slots; a buffer that is already large enough
// is kept, contents and all.
func (s *tileScratch) reserve(ts, cols, slots int) {
	if len(s.items) < ts {
		s.items = make([]int32, ts)
		s.bitmap = make([]uint8, ts)
		s.keys = make([]int64, ts)
		s.rowDeltas = make([][]int64, ts)
		s.cols = nil // its tiles are the old size
	}
	for len(s.cols) < cols {
		s.cols = append(s.cols, make([]int32, len(s.items)))
	}
	if len(s.vals) < cols {
		s.vals = make([]int32, cols)
	}
	if len(s.flat) < ts*slots {
		s.flat = make([]int64, ts*slots)
	}
	if len(s.acc) < 2*slots {
		s.acc = make([]int64, 2*slots)
	}
}

// scratchFree is the free list blocks draw tile scratch from: a buffered
// channel with non-blocking get and put, so it never holds more than its
// capacity (64 scratches of 0.1-0.3 MB: more blocks than that in flight at
// once means more goroutines than any host here runs, and the overflow is
// simply allocated and dropped). It is deliberately not a sync.Pool: every
// collection empties a pool, which makes a run's allocation a function of GC
// timing — and the benchmark holds alloc_kb_per_req to a few percent.
var scratchFree = make(chan *tileScratch, 64)

func getScratch(ts, cols, slots int) *tileScratch {
	var s *tileScratch
	select {
	case s = <-scratchFree:
	default:
		s = new(tileScratch)
	}
	s.reserve(ts, cols, slots)
	return s
}

func putScratch(s *tileScratch) {
	select {
	case scratchFree <- s:
	default:
	}
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
	ast := pl.agg
	aggCols := ast.cols
	aggSlices := make([]colReader, len(aggCols))
	for i, c := range aggCols {
		aggSlices[i] = ms.factReader(&ds.Lineorder, c)
	}
	table := crystal.NewMultiAggTable(aggEstimate(q), ast.ops)

	ts := cfg.TileSize()
	aggTiles, slots := len(aggCols), ast.slots()
	pass := sim.RunBounded(clk.Spec(), cfg, func(b *sim.Block) {
		if b.ID < len(skips) && skips[b.ID] {
			return // tile inside a zone-pruned morsel: no loads, no probes
		}
		sc := getScratch(ts, numPayloads+aggTiles, slots)
		defer putScratch(sc)
		items, bitmap := sc.items, sc.bitmap
		payloads, colVals := sc.cols[:numPayloads], sc.cols[numPayloads:numPayloads+aggTiles]
		pvals, rowVals := sc.vals[:numPayloads], sc.vals[numPayloads:numPayloads+aggTiles]

		nn := b.TileElems
		first := true
		// The first column load reads the full tile; later ones load
		// selectively through the bitmap. On the packed encoding the same
		// pair of primitives reads the tile's frames instead — a tile is
		// exactly one frame (MorselAlign = tile size), so per-block packed
		// traffic merges exactly for any partitioning.
		loadCol := func(cr colReader, dst []int32) int {
			if first {
				first = false
				if cr.packed != nil {
					return crystal.BlockLoadPacked(b, cr.packed, dst)
				}
				return crystal.BlockLoad(b, cr.plain, dst)
			}
			if cr.packed != nil {
				return crystal.BlockLoadSelPacked(b, cr.packed, bitmap, dst)
			}
			return crystal.BlockLoadSel(b, cr.plain, bitmap, dst)
		}

		// Selections on the fact table.
		for i := range q.FactFilters {
			f := &q.FactFilters[i]
			m := loadCol(filterCols[i], items)
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
			m := loadCol(fkCols[ji], items)
			var vals []int32
			if pi := payloadIdx[ji]; pi >= 0 {
				vals = payloads[pi]
			}
			crystal.BlockLookup(b, builds[ji].ht, items, m, bitmap, vals, false)
		}

		// Aggregate inputs: every referenced column's tile, then one
		// slot-delta vector per surviving row.
		for ci := range aggCols {
			loadCol(aggSlices[ci], colVals[ci])
		}
		rowDeltas := func(i int, out []int64) {
			for ci := range colVals {
				rowVals[ci] = colVals[ci][i]
			}
			ast.rowDeltas(rowVals, out)
		}
		if numPayloads == 0 {
			// Hierarchical block reduction: merge rows into block-local slots,
			// then one global atomic per slot — issued iff the block-local
			// accumulator differs from the identity vector. A block whose SUMs
			// all came to zero has nothing to add and issues none; a COUNT,
			// AVG, MIN or MAX slot moves with the first surviving row.
			local, row := sc.acc[:slots], sc.acc[slots:2*slots]
			ast.reset(local)
			for i := 0; i < nn; i++ {
				if bitmap[i] == 0 {
					continue
				}
				rowDeltas(i, row)
				ast.merge(local, row)
			}
			if !ast.untouched(local) {
				b.Pass().AtomicOps += int64(slots)
				table.Update(0, local)
			}
			return
		}
		for i := 0; i < nn; i++ {
			if bitmap[i] == 0 {
				continue
			}
			for pi := range pvals {
				pvals[pi] = payloads[pi][i]
			}
			sc.keys[i] = PackGroup(pvals)
			sc.rowDeltas[i] = sc.flat[i*slots : (i+1)*slots]
			rowDeltas(i, sc.rowDeltas[i])
		}
		crystal.BlockMultiAggUpdate(b, table, sc.keys, sc.rowDeltas, bitmap, nn)
	}, ms.lim)
	pass.Label = "gpu probe pipeline " + q.ID
	clk.Charge(pass)

	// Collect the device table; the block-local reduction of a statement with
	// no group-by lives under key 0, and is backfilled when no block reached it.
	accs := sched.NewAccTable(slots, table.Groups())
	table.Each(func(k int64, acc []int64) {
		dst, _ := accs.At(k)
		copy(dst, acc)
	})
	res := &Result{accs: ast.backfill(&q, accs)}
	res.Seconds = clk.Seconds()
	ms.stamp(res)
	return res
}
