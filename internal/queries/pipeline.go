package queries

import (
	"sync"
	"sync/atomic"

	"crystal/internal/crystal"
	"crystal/internal/pack"
	"crystal/internal/sched"
	"crystal/internal/sim"
	"crystal/internal/ssb"
)

// colReader reads one fact column from either the plain slice or the
// bit-packed frames. Packed runs decode every value they touch through the
// encoding, which is what makes packed results row-identical to plain ones
// by construction rather than by coincidence.
type colReader struct {
	plain  []int32
	packed *pack.Frames
}

// at returns the row-th value of the column.
func (c colReader) at(row int) int32 {
	if c.packed != nil {
		return c.packed.Get(row)
	}
	return c.plain[row]
}

// dimFill sizes dimension hash tables like the paper's (Section 5.3:
// "the size of the part hash table (with perfect hashing) is 2x4x1M =
// 8MB"): capacity is the next power of two above the full dimension
// cardinality, independent of how many rows survive the dimension filters.
const dimFill = 0.99

// buildInfo is one constructed join hash table plus the traffic its build
// phase generated (charged differently per engine).
type buildInfo struct {
	spec     JoinSpec
	ht       *crystal.HashTable
	dimRows  int64
	inserted int64
	// bytesRead is the dimension column bytes the build scanned.
	bytesRead int64
}

// buildTables constructs the join hash tables for a query: each table maps
// the dimension key to the group-by payload (or is key-only for pure
// semijoin filters), and only rows passing the dimension filters are
// inserted — probing misses are how filtered dimensions drop fact rows.
func buildTables(ds *ssb.Dataset, q Query) []buildInfo {
	builds := make([]buildInfo, len(q.Joins))
	for ji, j := range q.Joins {
		d := DimTable(ds, j.Dim)
		ht := crystal.NewHashTable(d.Rows(), dimFill, j.Payload != "")
		filterCols := make([][]int32, len(j.Filters))
		for fi := range j.Filters {
			filterCols[fi] = d.Col(j.Filters[fi].Col)
		}
		var payload []int32
		if j.Payload != "" {
			payload = d.Col(j.Payload)
		}
		inserted := int64(0)
	rows:
		for i := 0; i < d.Rows(); i++ {
			for fi := range j.Filters {
				if !j.Filters[fi].Match(filterCols[fi][i]) {
					continue rows
				}
			}
			v := int32(0)
			if payload != nil {
				v = payload[i]
			}
			ht.Insert(d.Key[i], v)
			inserted++
		}
		builds[ji] = buildInfo{
			spec:      j,
			ht:        ht,
			dimRows:   int64(d.Rows()),
			inserted:  inserted,
			bytesRead: int64(d.Rows()) * int64(1+len(j.Filters)+btoi(j.Payload != "")) * 4,
		}
	}
	return builds
}

// btoi converts a bool to 0/1.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pipeStats records the exact memory-access statistics of one pipelined
// pass over the fact table, from which each engine derives its traffic.
type pipeStats struct {
	// rows is the number of fact rows actually scanned (zone-pruned morsels
	// are excluded); totalRows is the full fact cardinality, which sizes
	// column footprints for random gathers regardless of pruning.
	rows      int64
	totalRows int64
	// colOrder is the sequence of fact columns the pass touches.
	colOrder []string
	// lines64 counts, per fact column, the distinct 64 B lines containing at
	// least one row alive when the column was read — the exact form of the
	// min(4|L|/C, |L|sigma) term in the Section 5.3 model. Morsel and chunk
	// boundaries are line-aligned (ssb.MorselAlign is a multiple of the line
	// size), so per-chunk counts sum to the exact distinct-line total no
	// matter how the scan is partitioned — which is what keeps simulated
	// seconds identical across partition counts.
	lines64 map[string]int64
	// packed reports whether the scan read the bit-packed fact encoding.
	// lines64 then counts lines of the packed layout (frames are
	// line-aligned, so the counts stay exactly additive across partitions),
	// and scanBytes/footBytes hold per fact column the packed bytes of the
	// surviving morsels' frames and the full column's packed footprint.
	packed    bool
	scanBytes map[string]int64
	footBytes map[string]int64
	// evals[i] is the number of rows evaluated by fact filter i.
	evals []int64
	// probes[j] is the number of probes into join j's hash table.
	probes []int64
	// alive[k] is the number of rows alive after stage k (fact filters
	// first, then joins).
	alive []int64
	// out is the number of rows reaching the aggregate.
	out int64
}

// colScanBytes returns the streaming bytes of one full-column operator scan
// over the surviving morsels (the materializing engines' per-operator read).
func (st *pipeStats) colScanBytes(col string) int64 {
	if st.packed {
		return st.scanBytes[col]
	}
	return st.rows * 4
}

// colFootprint returns the resident footprint data-dependent gathers into
// the column address — the packed footprint shrinks it, improving cache
// residency exactly as smaller hash tables do.
func (st *pipeStats) colFootprint(col string) int64 {
	if st.packed {
		return st.footBytes[col]
	}
	return st.totalRows * 4
}

// decoded returns the number of values the pipeline decoded from packed
// frames: every filter evaluation, probed foreign key and aggregate input
// reads one. CPU devices charge pack.UnpackCyclesPerElem of register
// arithmetic per decode; GPUs absorb it (the Section 5.5 asymmetry).
func (st *pipeStats) decoded(q Query) int64 {
	var n int64
	for _, e := range st.evals {
		n += e
	}
	for _, p := range st.probes {
		n += p
	}
	return n + st.out*int64(len(q.AggColumns()))
}

// aggEstimate caps the aggregation-table sizing.
func aggEstimate(q Query) int {
	est := 1
	for _, j := range q.GroupPayloads() {
		switch j.Payload {
		case "year":
			est *= 7
		case "nation":
			est *= 25
		case "city":
			est *= 250
		case "brand1":
			est *= 1000
		case "category":
			est *= 25
		default:
			est *= 64
		}
		if est > 1<<20 {
			return 1 << 20
		}
	}
	return est
}

// chunkRows is the unit of wall-clock parallelism inside a morsel scan: 16
// tiles. Any tile-aligned chunking yields identical merged statistics (see
// pipeStats), so the chunk size is purely a scheduling knob.
const chunkRows = 16 * ssb.MorselAlign

// scanChunk is one contiguous, tile-aligned unit of scan work inside morsel
// mi. Morsel boundaries are themselves tile-aligned, so every chunk starts
// on a tile boundary and never spans two morsels.
type scanChunk struct{ mi, lo, hi int }

// scanMember is one query's seat in a scan pass: its compiled plan and the
// morsel extent (pruning verdicts, fact encoding) its run resolved.
type scanMember struct {
	p  *Plan
	ms *morselRun
}

// line returns the 64 B line of the column's storage that holds row. Packed
// lines hold 32/width times more rows than plain ones; a width-0 frame
// occupies no storage and reports -1 (reading it touches no line).
func (c colReader) line(row int) int64 {
	if c.packed != nil {
		return c.packed.LineOf(row, 64)
	}
	return int64(row >> 4)
}

// lineTrack counts the distinct 64 B lines of one column that a monotone row
// sequence touches: rows only ascend, so a line is new exactly when it
// differs from the last one seen.
type lineTrack struct{ last, n int64 }

func (t *lineTrack) touch(l int64) {
	if l >= 0 && t.last != l+1 {
		t.last = l + 1
		t.n++
	}
}

// scanCol is one column-read slot of a member's pipeline (a filter input, a
// probed foreign key or an aggregate input): the resolved reader plus the
// column's index into the member's line trackers and into the pass-wide
// union trackers. Resolving both at setup keeps the row loop on slices.
type scanCol struct {
	colReader
	col, ucol int
}

// colIndex returns name's position in *cols, appending it when absent. The
// fact table has nine columns, so a linear scan needs no map.
func colIndex(cols *[]string, name string) int {
	for i, c := range *cols {
		if c == name {
			return i
		}
	}
	*cols = append(*cols, name)
	return len(*cols) - 1
}

// scanPipe is one member's resolved pipeline, shared read-only by the scan
// workers.
type scanPipe struct {
	q                 *Query
	builds            []buildInfo
	ast               *aggState
	filters, fks, agg []scanCol
	cols              []string // the member's distinct fact columns; index = scanCol.col
	pruned            []bool   // per canonical morsel
}

// scanAcc is one worker's private accumulator for one member.
type scanAcc struct {
	*scanPipe
	lines         []lineTrack // per scanPipe.cols
	evals, probes []int64
	alive         []int64
	out           int64
	accs          *sched.AccTable
	payloads      []int32
	vals          []int32
}

// touch meters the read of column c at row for the member and, when the pass
// has several members, folds the same line into the union trackers: a shared
// scan streams a line once no matter how many members consume it.
func (a *scanAcc) touch(c *scanCol, row int, union []lineTrack) {
	l := c.line(row)
	a.lines[c.col].touch(l)
	if union != nil {
		union[c.ucol].touch(l)
	}
}

// scanKernel is the one CPU-style row loop: it executes every member's probe
// pipeline — fact filters in order, then the join probes, then the grouped
// aggregate, short-circuiting per row exactly like the generated kernels —
// inside one pass over the union of the members' surviving morsels. A solo
// run is the pass with one member. Chunks are scanned in parallel (the
// calling goroutine always works, helpers are bounded by the first member's
// limiter); rows ascend in the outer loop and members evaluate in order
// within a row, so:
//
//   - each member's access statistics and partial aggregates depend only on
//     its own pipeline and liveness mask, never on who else rides the pass
//     (chunks are tile-aligned, so per-chunk distinct-line counts are exactly
//     additive), and
//   - the union line trackers see a monotone row sequence per column, so
//     consecutive-dedup counts exactly the distinct lines any member touched
//     — the traffic a shared scan streams once.
//
// It returns, per member, the raw result (the unfinalized accumulator table
// in Result.accs) and the access statistics, plus the per-column union 64 B
// line counts. With one member the union is that member's own counts, so no
// union tracker runs and the solo scan pays nothing for sharing.
func scanKernel(members []scanMember) ([]*Result, []*pipeStats, map[string]int64) {
	n := len(members)
	ds, morsels, lim := members[0].p.ds, members[0].ms.morsels, members[0].ms.lim
	pipes := make([]scanPipe, n)
	results := make([]*Result, n)
	stats := make([]*pipeStats, n)
	// ucols are the distinct fact columns across a shared pass (index =
	// scanCol.ucol); a solo pass tracks no union and leaves them empty.
	var ucols []string
	for i, m := range members {
		q, ms := &m.p.Query, m.ms
		aggCols := m.p.agg.cols
		nf, nj := len(q.FactFilters), len(q.Joins)
		st := &pipeStats{
			totalRows: int64(ds.Lineorder.Rows()),
			rows:      ms.scanned,
			colOrder:  make([]string, 0, nf+nj+len(aggCols)),
			packed:    ms.packed != nil,
			lines64:   map[string]int64{},
			evals:     make([]int64, nf),
			probes:    make([]int64, nj),
			alive:     make([]int64, nf+nj),
		}
		for fi := range q.FactFilters {
			st.colOrder = append(st.colOrder, q.FactFilters[fi].Col)
		}
		for ji := range q.Joins {
			st.colOrder = append(st.colOrder, q.Joins[ji].FactFK)
		}
		st.colOrder = append(st.colOrder, aggCols...)
		pipe := &pipes[i]
		*pipe = scanPipe{q: q, builds: m.p.builds, ast: m.p.agg, pruned: ms.pruned}
		pipe.cols = make([]string, 0, len(st.colOrder))
		slots := make([]scanCol, len(st.colOrder))
		for si, name := range st.colOrder {
			slots[si] = scanCol{colReader: ms.factReader(&ds.Lineorder, name), col: colIndex(&pipe.cols, name)}
			if n > 1 {
				slots[si].ucol = colIndex(&ucols, name)
			}
		}
		pipe.filters, pipe.fks, pipe.agg = slots[:nf], slots[nf:nf+nj], slots[nf+nj:]
		if st.packed {
			// Per-column packed extents: scan bytes over the surviving morsels
			// (exactly additive — morsels cover whole frames) and the full
			// column footprint gathers address. Host-side metadata, no device
			// time.
			st.scanBytes = map[string]int64{}
			st.footBytes = map[string]int64{}
			for _, col := range pipe.cols {
				fr := ms.packed.Col(col)
				st.footBytes[col] = fr.Bytes()
				var b int64
				for _, lm := range ms.live {
					b += fr.BytesRange(lm.Lo, lm.Hi)
				}
				st.scanBytes[col] = b
			}
		}
		results[i], stats[i] = &Result{}, st
	}

	// Chunks cover the union of the members' surviving morsels; the morsel
	// index lets the row loop seat only the members live on the chunk.
	chunks := make([]scanChunk, 0, ds.Lineorder.Rows()/chunkRows+len(morsels))
	for mi, m := range morsels {
		live := false
		for i := range pipes {
			if !pipes[i].pruned[mi] {
				live = true
				break
			}
		}
		if !live {
			continue
		}
		for lo := m.Lo; lo < m.Hi; lo += chunkRows {
			chunks = append(chunks, scanChunk{mi: mi, lo: lo, hi: min(lo+chunkRows, m.Hi)})
		}
	}

	union64 := stats[0].lines64
	if n > 1 {
		union64 = map[string]int64{}
	}

	var next int64
	var mu sync.Mutex
	worker := func() {
		accs := make([]scanAcc, n)
		for i := range pipes {
			pipe := &pipes[i]
			accs[i] = scanAcc{
				scanPipe: pipe,
				lines:    make([]lineTrack, len(pipe.cols)),
				evals:    make([]int64, len(pipe.filters)),
				probes:   make([]int64, len(pipe.fks)),
				alive:    make([]int64, len(pipe.filters)+len(pipe.fks)),
				accs:     sched.NewAccTable(pipe.ast.slots(), 0),
				payloads: make([]int32, 0, len(pipe.fks)),
				vals:     make([]int32, len(pipe.agg)),
			}
		}
		var union []lineTrack
		if n > 1 {
			union = make([]lineTrack, len(ucols))
		}
		seated := make([]*scanAcc, 0, n)
		for {
			ci := int(atomic.AddInt64(&next, 1) - 1)
			if ci >= len(chunks) {
				break
			}
			c := chunks[ci]
			seated = seated[:0]
			for i := range accs {
				if !accs[i].pruned[c.mi] {
					seated = append(seated, &accs[i])
				}
			}
			for row := c.lo; row < c.hi; row++ {
			members:
				for _, a := range seated {
					q := a.q
					for fi := range a.filters {
						a.evals[fi]++
						a.touch(&a.filters[fi], row, union)
						if !q.FactFilters[fi].Match(a.filters[fi].at(row)) {
							continue members
						}
						a.alive[fi]++
					}
					a.payloads = a.payloads[:0]
					for ji := range a.fks {
						a.probes[ji]++
						a.touch(&a.fks[ji], row, union)
						v, ok := a.builds[ji].ht.Get(a.fks[ji].at(row))
						if !ok {
							continue members
						}
						a.alive[len(a.filters)+ji]++
						if q.Joins[ji].Payload != "" {
							a.payloads = append(a.payloads, v)
						}
					}
					for ai := range a.agg {
						a.touch(&a.agg[ai], row, union)
						a.vals[ai] = a.agg[ai].at(row)
					}
					a.out++
					a.ast.update(a.ast.at(a.accs, PackGroup(a.payloads)), a.vals)
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for i := range accs {
			a, st, res := &accs[i], stats[i], results[i]
			for ci, t := range a.lines {
				st.lines64[a.cols[ci]] += t.n
			}
			for fi, v := range a.evals {
				st.evals[fi] += v
			}
			for ji, v := range a.probes {
				st.probes[ji] += v
			}
			for k, v := range a.alive {
				st.alive[k] += v
			}
			st.out += a.out
			res.accs = a.ast.mergeTable(res.accs, a.accs)
		}
		for ui, t := range union {
			union64[ucols[ui]] += t.n
		}
	}
	if len(chunks) > 0 {
		sim.RunWithHelpers(len(chunks), lim, worker)
	}

	// Partials stay raw for the caller's merge to finalize; a global aggregate
	// always yields one row, whether or not any row (or worker) reached it.
	for i := range pipes {
		results[i].accs = pipes[i].ast.backfill(pipes[i].q, results[i].accs)
	}
	return results, stats, union64
}

// scan runs the plan alone through the scan kernel — a batch of one.
func (p *Plan) scan(ms *morselRun) (*Result, *pipeStats) {
	results, stats, _ := scanKernel([]scanMember{{p: p, ms: ms}})
	return results[0], stats[0]
}
