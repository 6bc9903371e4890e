package queries

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"crystal/internal/crystal"
	"crystal/internal/pack"
	"crystal/internal/sched"
	"crystal/internal/sim"
	"crystal/internal/ssb"
)

// dimFill sizes the modelled dimension hash tables like the paper's
// (Section 5.3: "the size of the part hash table (with perfect hashing) is
// 2x4x1M = 8MB"): capacity is the next power of two above the full
// dimension cardinality, independent of how many rows survive the dimension
// filters. Only the footprint exists; the host probes the key index.
const dimFill = 0.99

// buildInfo is one join of a compiled plan. The host probes the dimension's
// key index, shared by every statement over the generation: a key's row r
// joins when r >= 0 and bit r of pass is set, and its payload is the
// dimension's own column at r. The model charges the build and the probes
// of a perfect-hash table of htBytes (JoinTableBytes) holding the inserted
// rows, exactly as if the host had built one.
type buildInfo struct {
	spec      JoinSpec
	index     *ssb.KeyIndex
	pass      []uint64 // the rows the filters keep, 64 a word; nil keeps every row
	payload   []int32  // the group-by column; nil for a semijoin
	htBytes   int64
	inserted  int64
	bytesRead int64 // the dimension column bytes the build scans
}

// buildTables resolves a query's joins: each filtered join gets its row
// bitmap from one DimFilter pass, an unfiltered one none. It panics on a
// dimension whose keys repeat (ssb.Read refuses such data, so only a Dim
// assembled by hand reaches it), as DimTable does on an unknown name.
func buildTables(ds *ssb.Dataset, q Query) []buildInfo {
	builds := make([]buildInfo, len(q.Joins))
	for ji, j := range q.Joins {
		d := DimTable(ds, j.Dim)
		index, err := d.Index()
		if err != nil {
			panic("queries: " + err.Error())
		}
		n, b := d.Rows(), &builds[ji]
		*b = buildInfo{spec: j, index: index, htBytes: JoinTableBytes(d, j), inserted: int64(n),
			bytesRead: int64(n) * int64(1+len(j.Filters)+btoi(j.Payload != "")) * 4}
		if len(j.Filters) > 0 {
			b.pass = make([]uint64, (n+63)/64)
			b.inserted = int64(DimFilter(d, j.Filters, b.pass))
		}
		if j.Payload != "" {
			b.payload = d.Col(j.Payload)
		}
	}
	return builds
}

// DimFilter evaluates filters over d's rows 64 at a time: a word's mask
// starts with every row and each filter column in turn ANDs its own in,
// stopping once no row is left. It stores word w's mask at pass[w] when pass
// is non-nil ((d.Rows()+63)/64 words) and returns the number of rows every
// filter keeps — all of them with no filters. Compile's join bitmaps and the
// planner's selectivities are this one pass; counting allocates nothing.
func DimFilter(d *ssb.Dim, filters []Filter, pass []uint64) int {
	var stack [4][]int32
	cols := stack[:0]
	for fi := range filters {
		cols = append(cols, d.Col(filters[fi].Col))
	}
	n, count := d.Rows(), 0
	for lo := 0; lo < n; lo += 64 {
		hi := min(lo+64, n)
		m := ^uint64(0) >> (64 - (hi - lo))
		for fi := 0; fi < len(filters) && m != 0; fi++ {
			m &= filters[fi].matchWord(cols[fi][lo:hi])
		}
		if pass != nil {
			pass[lo/64] = m
		}
		count += bits.OnesCount64(m)
	}
	return count
}

// JoinTableBytes is the footprint of the perfect-hash table the model builds
// for join j over dimension d, payload or not: what every engine charges the
// join's build and probes against, and what a cost model prices them with.
func JoinTableBytes(d *ssb.Dim, j JoinSpec) int64 {
	return crystal.HashTableBytes(crystal.HashCapacity(d.Rows(), dimFill), j.Payload != "")
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
	// min(4|L|/C, |L|sigma) term in the Section 5.3 model. Later reads of a
	// column see a subset of the rows its first read saw, so the count is
	// its first read's. Tile boundaries are line-aligned (ssb.MorselAlign is
	// a multiple of the line size), so per-tile counts sum to the exact
	// distinct-line total no matter how the scan is partitioned — which is
	// what keeps simulated seconds identical across partition counts.
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
	// lines128[s] counts, for read slot s of colOrder (s >= 1), the 128 B
	// lines holding a row selected at that slot: what a GPU's selective tile
	// load streams (BlockLoadSel's min(4|L|/C, |L|sigma) term), once per
	// slot, so a column read twice is charged twice. The first slot loads
	// whole tiles and is charged rows*4 (or its scanBytes when packed)
	// instead, so lines128[0] stays 0.
	lines128 []int64
	// atomicTiles counts the tiles whose block-local accumulator of a
	// global (no group-by) aggregate left the identity vector: the GPU
	// issues one atomic per accumulator slot for each of them, and none for
	// a tile whose contributions left every slot where it started.
	atomicTiles int64
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
	for _, j := range q.Joins {
		switch j.Payload {
		case "":
			continue
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

// tileLines is one read's 64 B line mask over one tile: bit l is set when
// the read touched the tile's l-th 64 B line of the column's storage. A tile
// of ssb.MorselAlign rows spans at most 128 of them (plain: 16 rows a line;
// packed: 512/width rows a line, since a tile is exactly one frame), and
// both encodings start every tile on a 256 B boundary, so a tile's lines
// are its own and a 128 B line is an aligned pair of 64 B ones.
type tileLines [2]uint64

// fullLines is the mask of a read of every one of a tile's n rows, stored
// width bits a row.
func fullLines(n int, width uint) tileLines {
	if n == 0 || width == 0 {
		return tileLines{}
	}
	l := uint(n-1)*width>>9 + 1
	if l < 64 {
		return tileLines{1<<l - 1}
	}
	return tileLines{^uint64(0), 1<<(l-64) - 1}
}

// selLines is the mask of a read of the selected rows.
func selLines(sel []int32, width uint) tileLines {
	var m tileLines
	if width == 0 {
		return m // a constant frame occupies no storage
	}
	for _, i := range sel {
		l := uint(i) * width >> 9
		m[l>>6] |= 1 << (l & 63)
	}
	return m
}

// count is the number of 64 B lines read.
func (m tileLines) count() int64 {
	return int64(bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]))
}

// pairs is the number of 128 B lines read: aligned pairs with a bit set.
func (m tileLines) pairs() int64 {
	const even = 0x5555555555555555
	return int64(bits.OnesCount64((m[0]|m[0]>>1)&even) + bits.OnesCount64((m[1]|m[1]>>1)&even))
}

// scanCol is one column-read slot of a member's pipeline (a filter input, a
// probed foreign key or an aggregate input): the column in the run's
// encoding, its index into the member's line counts and into the pass-wide
// union masks, and whether the slot is the column's first read in the
// member's pipeline (the read its line count is taken from).
type scanCol struct {
	plain     []int32
	packed    *pack.Frames
	col, ucol int
	first     bool
}

// read returns the n-row tile at lo indexed by tile row, valid at least at
// the selected rows, and the bits a row of the column occupies: the plain
// column's tile itself, or the tile's frame decoded into buf — whole when
// every row is selected, otherwise only at the selected rows.
func (c *scanCol) read(lo, n int, sel, buf []int32) ([]int32, uint) {
	if c.packed == nil {
		return c.plain[lo : lo+n], 32
	}
	f := c.packed.Frame(lo / ssb.MorselAlign)
	if len(sel) == n {
		f.UnpackRange(0, n, buf)
	} else {
		for _, i := range sel {
			buf[i] = f.Get(int(i))
		}
	}
	return buf, f.Width()
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
// workers. slots are its reads in colOrder: the nf fact filters, the nj
// probed foreign keys, then the aggregate inputs.
type scanPipe struct {
	q        *Query
	builds   []buildInfo
	ast      *aggState
	slots    []scanCol
	nf, nj   int
	payloads int      // joins that carry a group payload
	cols     []string // the member's distinct fact columns; index = scanCol.col
	pruned   []bool   // per canonical morsel
}

// seat resolves member m's pipeline into pipe — its read slots in colOrder,
// over the fact encoding its run resolved — and returns the member's empty
// statistics. With ucols set, each slot also gets its index into the
// pass-wide union columns, appended there when new.
func (pipe *scanPipe) seat(m scanMember, ucols *[]string) *pipeStats {
	q, ms, ds := &m.p.Query, m.ms, m.p.ds
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
		lines128:  make([]int64, nf+nj+len(aggCols)),
	}
	for fi := range q.FactFilters {
		st.colOrder = append(st.colOrder, q.FactFilters[fi].Col)
	}
	for ji := range q.Joins {
		st.colOrder = append(st.colOrder, q.Joins[ji].FactFK)
	}
	st.colOrder = append(st.colOrder, aggCols...)
	*pipe = scanPipe{q: q, builds: m.p.builds, ast: m.p.agg, nf: nf, nj: nj,
		payloads: m.p.agg.groups, pruned: ms.pruned}
	pipe.cols = make([]string, 0, len(st.colOrder))
	pipe.slots = make([]scanCol, len(st.colOrder))
	for si, name := range st.colOrder {
		c := &pipe.slots[si]
		known := len(pipe.cols)
		c.col = colIndex(&pipe.cols, name)
		c.first = len(pipe.cols) > known
		if ms.packed != nil {
			c.packed = ms.packed.Col(name)
		} else {
			c.plain = ds.Lineorder.Col(name)
		}
		if ucols != nil {
			c.ucol = colIndex(ucols, name)
		}
	}
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
	return st
}

// scanAcc is one worker's private accumulator for one member, opened at the
// first tile the worker seats the member on: a member the worker never scans
// (another device's shard, another arm's morsels) costs it nothing.
type scanAcc struct {
	*scanPipe
	lines         []int64 // per scanPipe.cols
	lines128      []int64 // per slot
	evals, probes []int64
	alive         []int64
	out, atomics  int64
	accs          *sched.AccTable
}

func (a *scanAcc) open(pipe *scanPipe) {
	*a = scanAcc{
		scanPipe: pipe,
		lines:    make([]int64, len(pipe.cols)),
		lines128: make([]int64, len(pipe.slots)),
		evals:    make([]int64, pipe.nf),
		probes:   make([]int64, pipe.nj),
		alive:    make([]int64, pipe.nf+pipe.nj),
		accs:     sched.NewAccTable(pipe.ast.slots(), 0),
	}
}

// tileScratch is one worker's tile buffers — the registers and shared
// memory of Section 3.3, which a GPU reuses for every tile and never
// allocates. A worker takes one from scratchFree for its pass and puts it
// back at the end, so a pass allocates no tile however many tiles it runs.
//
// A reused scratch holds another tile's values, possibly another query's.
// The pipeline may therefore read an entry only if it wrote that entry
// earlier in the same tile: sel[:n] is reset to every row at the start of a
// tile and only compacted after; a packed read decodes into items or its
// cols buffer at every selected row before anything reads them; a probe
// through Row (a range-table or map key index) writes rows[j] for every
// selected row it visits, so rows[:k] holds the k kept rows' dimension rows
// before its payload gather reads them; a probe writes its payload tile at
// the rows it keeps and nowhere else, and the aggregate reads payloads and
// inputs only at rows every read kept; row is written before each update
// reads it; acc is reset to the merge identities at every tile.
// Nothing that outlives the pass may alias a scratch buffer.
type tileScratch struct {
	sel   []int32   // the tile rows alive at the current read
	items []int32   // a packed filter input's or key's decoded rows
	rows  []int32   // a probe's dimension rows, one per kept row, in sel's order
	cols  [][]int32 // payload tiles, then the packed aggregate inputs' decoded rows
	aggs  [][]int32 // the aggregate inputs' tiles
	row   []int32   // one row's payloads, then its aggregate inputs
	acc   []int64   // a global aggregate's tile-local accumulator
}

// reserve sizes the scratch for tiles of ts rows with the given number of
// payload joins, aggregate inputs and accumulator slots; a buffer that is
// already large enough is kept, contents and all.
func (s *tileScratch) reserve(ts, payloads, aggs, slots int) {
	if len(s.sel) < ts {
		s.sel = make([]int32, ts)
		s.items = make([]int32, ts)
		s.rows = make([]int32, ts)
		s.cols = nil // its tiles are the old size
	}
	for len(s.cols) < payloads+aggs {
		s.cols = append(s.cols, make([]int32, len(s.sel)))
	}
	if len(s.row) < payloads+aggs {
		s.row = make([]int32, payloads+aggs)
		s.aggs = make([][]int32, payloads+aggs)
	}
	if len(s.acc) < slots {
		s.acc = make([]int64, slots)
	}
}

// scratchFree is the free list workers draw tile scratch from: a buffered
// channel with non-blocking get and put, so it never holds more than its
// capacity (64 scratches of ~0.1 MB: more workers than that in flight at
// once means more goroutines than any host here runs, and the overflow is
// simply allocated and dropped). It is deliberately not a sync.Pool: every
// collection empties a pool, which makes a run's allocation a function of GC
// timing — and the benchmark holds alloc_kb_per_req to a few percent.
var scratchFree = make(chan *tileScratch, 64)

func getScratch(ts, payloads, aggs, slots int) *tileScratch {
	var s *tileScratch
	select {
	case s = <-scratchFree:
	default:
		s = new(tileScratch)
	}
	s.reserve(ts, payloads, aggs, slots)
	return s
}

func putScratch(s *tileScratch) {
	select {
	case scratchFree <- s:
	default:
	}
}

// scanTile runs the member's pipeline over the n-row tile at lo, one read at
// a time through the selection vector: the first read takes every row of the
// tile, each later one only the rows still alive, so a read touches exactly
// the lines a GPU's selective tile load streams and a CPU's short-circuiting
// row-at-a-time pipeline touches. Each read's line mask is counted for the
// member's 64 B lines (first reads of a column), its 128 B lines (every read
// after the first) and, on a shared pass, folded into the union masks.
func (a *scanAcc) scanTile(lo, n int, sc *tileScratch, union []tileLines) {
	sel := sc.sel[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	payloads, aggs := sc.cols[:a.payloads], sc.aggs[:0]
	for s := range a.slots {
		c := &a.slots[s]
		buf := sc.items
		if s >= a.nf+a.nj {
			buf = sc.cols[a.payloads+len(aggs)]
		}
		vals, width := c.read(lo, n, sel, buf)
		var m tileLines
		if s == 0 {
			m = fullLines(n, width)
		} else {
			m = selLines(sel, width)
			a.lines128[s] += m.pairs()
		}
		if c.first {
			a.lines[c.col] += m.count()
			if union != nil {
				union[c.ucol][0] |= m[0]
				union[c.ucol][1] |= m[1]
			}
		}
		switch {
		case s < a.nf:
			a.evals[s] += int64(len(sel))
			sel = filterSel(&a.q.FactFilters[s], vals, sel)
			a.alive[s] += int64(len(sel))
		case s < a.nf+a.nj:
			ji := s - a.nf
			var out []int32
			if a.q.Joins[ji].Payload != "" {
				out, payloads = payloads[0], payloads[1:]
			}
			a.probes[ji] += int64(len(sel))
			sel = probeSel(&a.builds[ji], vals, sel, out, sc.rows)
			a.alive[s] += int64(len(sel))
		default:
			aggs = append(aggs, vals)
		}
		if len(sel) == 0 {
			return // nothing alive: later reads touch no line, probe nothing, aggregate nothing
		}
	}
	a.aggregate(sel, sc.cols[:a.payloads], aggs, sc)
}

// filterSel compacts sel to the selected rows whose value passes f. The
// compaction is predicated (the paper's Section 4.2, Figs. 12 and 15): every
// row is written at k and k advances by the comparison's 0/1, so no branch
// depends on the data. A range compares each value once, offset into
// [0, Hi-Lo]; an IN list ORs its equalities.
func filterSel(f *Filter, vals, sel []int32) []int32 {
	k := 0
	if f.In != nil {
		for _, i := range sel {
			v, hit := vals[i], 0
			for _, x := range f.In {
				hit |= btoi(v == x)
			}
			sel[k] = i
			k += hit
		}
		return sel[:k]
	}
	if f.Lo > f.Hi {
		return sel[:0]
	}
	lo, width := f.Lo, uint32(f.Hi-f.Lo)
	for _, i := range sel {
		sel[k] = i
		k += btoi(uint32(vals[i]-lo) <= width)
	}
	return sel[:k]
}

// probeSel probes join b with the selected rows' keys, compacting sel to the
// rows whose dimension row exists and passes the join's filters and, when
// out is set, writing their payloads at their rows of out (and nowhere
// else). The compaction is predicated like filterSel's (probeIdentity,
// probeIndex); the payload column is then read for the kept rows only.
func probeSel(b *buildInfo, keys, sel, out, rows []int32) []int32 {
	if b.pass != nil && len(b.pass) == 0 {
		return sel[:0] // an empty dimension joins nothing
	}
	var k int
	if lo, span, ok := b.index.Identity(); ok {
		k = probeIdentity(lo, span, b.pass, keys, sel)
		if out != nil {
			for _, i := range sel[:k] {
				out[i] = b.payload[keys[i]-lo]
			}
		}
	} else {
		k = probeIndex(b.index, b.pass, keys, sel, rows)
		if out != nil {
			for j, i := range sel[:k] {
				out[i] = b.payload[rows[j]]
			}
		}
	}
	return sel[:k]
}

// probeIdentity compacts sel over an identity key index, where key lo+u is
// row u for u < span, and returns the number kept. A row is kept by
// (u < span) AND its bit of pass, an absent key's u masked to row 0 so the
// bitmap load stays in bounds; a nil pass keeps every present key.
func probeIdentity(lo int32, span uint32, pass []uint64, keys, sel []int32) int {
	k := 0
	if pass == nil {
		for _, i := range sel {
			sel[k] = i
			k += btoi(uint32(keys[i]-lo) < span)
		}
		return k
	}
	for _, i := range sel {
		u := uint32(keys[i] - lo)
		in := btoi(u < span)
		r := u & uint32(-in)
		sel[k] = i
		k += in & int(pass[r>>6]>>(r&63)&1)
	}
	return k
}

// probeIndex compacts sel over any other key index through Row and returns
// the number kept, writing each kept row's dimension row to rows (at least
// len(sel) long). Row's -1 for an absent key is clamped to row 0 so the
// bitmap load stays in bounds, and the row is kept by (r >= 0) AND its bit.
func probeIndex(x *ssb.KeyIndex, pass []uint64, keys, sel, rows []int32) int {
	k := 0
	for _, i := range sel {
		r := x.Row(keys[i])
		c := r &^ (r >> 63)
		sel[k], rows[k] = i, int32(c)
		k += btoi(r >= 0) & passes(pass, c)
	}
	return k
}

// passes is 1 when bitmap pass keeps row r, and always for a nil bitmap.
func passes(pass []uint64, r int) int {
	if pass == nil {
		return 1
	}
	return int(pass[r>>6] >> (r & 63) & 1)
}

// aggregate folds the rows alive after the last read into the member's
// accumulators, from the payload tiles and the aggregate inputs' tiles. A
// grouped statement updates its group's vector row by row; a global one
// reduces the tile into a block-local accumulator first and merges it once —
// and counts the tile for the GPU's atomics only when that accumulator left
// the identity.
func (a *scanAcc) aggregate(sel []int32, payloads, aggs [][]int32, sc *tileScratch) {
	a.out += int64(len(sel))
	pvals, vals := sc.row[:len(payloads)], sc.row[len(payloads):len(payloads)+len(aggs)]
	if len(payloads) > 0 {
		for _, i := range sel {
			for pi, p := range payloads {
				pvals[pi] = p[i]
			}
			for ai, t := range aggs {
				vals[ai] = t[i]
			}
			a.ast.update(a.ast.at(a.accs, PackGroup(pvals)), vals)
		}
		return
	}
	local := sc.acc[:a.ast.slots()]
	a.ast.reset(local)
	for _, i := range sel {
		for ai, t := range aggs {
			vals[ai] = t[i]
		}
		a.ast.update(local, vals)
	}
	if !a.ast.untouched(local) {
		a.atomics++
		a.ast.merge(a.ast.at(a.accs, 0), local)
	}
}

// scanKernel is the one probe pipeline: it executes every member's pipeline
// — fact filters in order, then the join probes, then the grouped aggregate
// — tile by tile (ssb.MorselAlign rows, the GPU tile and packed frame),
// one read at a time through a selection vector, inside one pass over the
// union of the members' surviving morsels. Every executor's assignment is a
// member (seatSchedules), so a solo engine run is the pass with one member
// and a fleet's devices are one member each; every engine prices the
// statistics it meters (price, priceGPU).
// Chunks of tiles are scanned in parallel (the calling goroutine always
// works, helpers are bounded by the first member's limiter); members run in
// order within a tile, so:
//
//   - each member's access statistics and partial aggregates depend only on
//     its own pipeline and its live tiles, never on who else rides the pass
//     (tiles are line-aligned, so per-tile line counts are exactly
//     additive), and
//   - a column's union mask over a tile is the OR of the members' first
//     reads of it, so its count is exactly the distinct lines any member
//     touched — the traffic a shared scan streams once.
//
// It returns, per member, the raw result (the unfinalized accumulator table
// in Result.accs) and the access statistics, plus — when union is set — the
// per-column union 64 B line counts. Without union no mask is kept and the
// union is nil, so a pass serving one schedule, however many executors it
// has, pays nothing for sharing.
func scanKernel(members []scanMember, union bool) ([]*Result, []*pipeStats, map[string]int64) {
	n := len(members)
	ds, morsels, lim := members[0].p.ds, members[0].ms.morsels, members[0].ms.lim
	pipes := make([]scanPipe, n)
	results := make([]*Result, n)
	stats := make([]*pipeStats, n)
	// ucols are the distinct fact columns across a shared pass (index =
	// scanCol.ucol); a pass without union leaves them empty.
	var ucols []string
	var ucolsOf *[]string
	if union {
		ucolsOf = &ucols
	}
	maxPayloads, maxAggs, maxSlots := 0, 0, 0
	for i, m := range members {
		results[i], stats[i] = &Result{}, pipes[i].seat(m, ucolsOf)
		maxPayloads = max(maxPayloads, pipes[i].payloads)
		maxAggs = max(maxAggs, len(m.p.agg.cols))
		maxSlots = max(maxSlots, m.p.agg.slots())
	}

	// Chunks cover the union of the members' surviving morsels; the morsel
	// index lets the tile loop seat only the members live on the chunk.
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

	var union64 map[string]int64
	if union {
		union64 = map[string]int64{}
	}

	var next int64
	var mu sync.Mutex
	worker := func() {
		sc := getScratch(ssb.MorselAlign, maxPayloads, maxAggs, maxSlots)
		defer putScratch(sc)
		accs := make([]scanAcc, n)
		var masks []tileLines
		var unionLines []int64
		if union {
			masks = make([]tileLines, len(ucols))
			unionLines = make([]int64, len(ucols))
		}
		seated := make([]*scanAcc, 0, n)
		for {
			ci := int(atomic.AddInt64(&next, 1) - 1)
			if ci >= len(chunks) {
				break
			}
			c := chunks[ci]
			seated = seated[:0]
			for i := range pipes {
				if pipes[i].pruned[c.mi] {
					continue
				}
				if accs[i].scanPipe == nil {
					accs[i].open(&pipes[i])
				}
				seated = append(seated, &accs[i])
			}
			for lo := c.lo; lo < c.hi; lo += ssb.MorselAlign {
				rows := min(ssb.MorselAlign, c.hi-lo)
				for _, a := range seated {
					a.scanTile(lo, rows, sc, masks)
				}
				for u := range masks {
					unionLines[u] += masks[u].count()
					masks[u] = tileLines{}
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for i := range accs {
			a, st, res := &accs[i], stats[i], results[i]
			if a.scanPipe == nil {
				continue // never seated here
			}
			for ci, v := range a.lines {
				st.lines64[a.cols[ci]] += v
			}
			for si, v := range a.lines128 {
				st.lines128[si] += v
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
			st.atomicTiles += a.atomics
			res.accs = a.ast.mergeTable(res.accs, a.accs)
		}
		for u, v := range unionLines {
			union64[ucols[u]] += v
		}
	}
	if len(chunks) > 0 {
		sim.RunWithHelpers(len(chunks), lim, worker)
	}

	// Partials stay raw for the caller's merge to finalize; a global aggregate
	// always yields one row, whether or not any row (or worker) reached it.
	for i := range pipes {
		results[i].accs = pipes[i].ast.backfill(results[i].accs)
	}
	return results, stats, union64
}
