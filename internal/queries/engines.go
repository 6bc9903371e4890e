package queries

import (
	"crystal/internal/device"
	"crystal/internal/pack"
)

// Engine identifies one of the evaluated systems (Figures 3 and 16).
type Engine string

// The engines of the Section 5 evaluation.
const (
	EngineGPU     Engine = "Standalone GPU" // tile-based Crystal kernels
	EngineCPU     Engine = "Standalone CPU" // vectorized CPU implementation
	EngineHyper   Engine = "Hyper (CPU)"    // compiled push-based, scalar
	EngineMonet   Engine = "MonetDB (CPU)"  // operator-at-a-time, materializing
	EngineOmnisci Engine = "Omnisci (GPU)"  // independent-threads GPU kernels
	EngineCoproc  Engine = "GPU Coprocessor"
)

// Engines lists all engines in report order.
func Engines() []Engine {
	return []Engine{EngineHyper, EngineCPU, EngineMonet, EngineOmnisci, EngineGPU, EngineCoproc}
}

// Per-element compute costs (scalar-equivalent cycles) of the CPU engines.
// The standalone CPU engine is vectorized (Polychroniou-style); the
// Hyper stand-in compiles tight scalar loops — efficient but without SIMD
// predicate evaluation or vectorized probes, which is where the paper sees
// its 1.17x average gap (Section 5.2: "We believe Hyper is missing
// vectorization opportunities and using a different implementation of hash
// tables").
const (
	cpuFilterCycles = 1.0
	cpuProbeCycles  = 1.5
	cpuAggCycles    = 2.0

	hyperFilterCycles = 6.0
	hyperProbeCycles  = 4.0
	hyperAggCycles    = 4.0

	// hyperProbeFactor inflates Hyper's probe count: its hash tables chain
	// buckets rather than probing linearly, costing extra dependent
	// accesses per lookup (Section 5.2: "a different implementation of
	// hash tables").
	hyperProbeFactor = 1.35

	monetOpCycles = 4.0
)

// chargeBuilds prices the hash-table build phases on a CPU-like device.
func chargeBuilds(clk *device.Clock, builds []buildInfo) {
	for i := range builds {
		b := &builds[i]
		pass := &device.Pass{Label: "build " + b.spec.Dim, BytesRead: b.bytesRead}
		pass.AddProbes(device.ProbeSet{Count: b.inserted, StructBytes: b.ht.Bytes(), Writes: true})
		clk.Charge(pass)
	}
}

// cpuFamily reports whether e is one of the four engines whose execution is
// the scanKernel pass followed by pure arithmetic over its pipeStats: their
// simulated seconds are price(e, stats), whoever ran the pass.
func cpuFamily(e Engine) bool {
	switch e {
	case EngineCPU, EngineHyper, EngineMonet, EngineOmnisci:
		return true
	}
	return false
}

// price returns the simulated seconds CPU-family engine e charges for the
// compiled plan given the access statistics of its scan pass — the
// paper's method: count what a pass touches, then price it on the device's
// bandwidth. It is the one cost path of these engines: a solo run prices its
// own scan, a shared-scan batch member its seat in the shared pass.
func (p *Plan) price(e Engine, st *pipeStats) float64 {
	switch e {
	case EngineCPU:
		return p.priceCPU(st)
	case EngineHyper:
		return p.priceHyper(st)
	case EngineMonet:
		return p.priceMonet(st)
	case EngineOmnisci:
		return p.priceOmnisci(st)
	}
	panic("queries: no scan pricing for engine " + string(e))
}

// priceCPU prices the compiled plan on the paper's "Standalone CPU": a
// vectorized, pipelined, multi-core implementation equivalent to the
// Crystal GPU kernels (Section 5.2). One pass over the fact table
// evaluates filters with SIMD predicates, probes the join hash tables, and
// aggregates into thread-local tables merged at the end.
func (p *Plan) priceCPU(st *pipeStats) float64 {
	clk := device.NewClock(device.I76900())
	chargeBuilds(clk, p.builds)
	clk.Charge(cpuProbePass(st, p.builds, p.Query, cpuFilterCycles, cpuProbeCycles, cpuAggCycles))
	return clk.Seconds()
}

// priceHyper prices the compiled plan on the Hyper stand-in: the same
// pipelined push-based execution as the Standalone CPU, but with scalar
// predicate evaluation and tuple-at-a-time hash probes.
func (p *Plan) priceHyper(st *pipeStats) float64 {
	clk := device.NewClock(device.I76900())
	chargeBuilds(clk, p.builds)
	pass := cpuProbePass(st, p.builds, p.Query, hyperFilterCycles, hyperProbeCycles, hyperAggCycles)
	for i := range pass.Probes {
		pass.Probes[i].Count = int64(float64(pass.Probes[i].Count) * hyperProbeFactor)
	}
	return clk.Seconds() + clk.Spec().PassTime(pass)
}

// cpuProbePass derives the CPU probe-phase traffic from the pipeline
// statistics: column reads are the 64 B lines actually touched (of the
// packed layout when the run scanned the compressed encoding), hash probes
// are random accesses into each table's footprint, and probes of multi-join
// pipelines are dependent (Section 5.3 latency wall). Packed runs
// additionally pay pack.UnpackCyclesPerElem of register arithmetic per
// decoded value — with only ~25 Gcycles/s against 53 GBps this is what can
// tip a CPU scan from bandwidth bound to compute bound, the asymmetry that
// makes packing a clear win only on the GPU (Section 5.5).
func cpuProbePass(st *pipeStats, builds []buildInfo, q Query, filterCyc, probeCyc, aggCyc float64) *device.Pass {
	pass := &device.Pass{Label: "probe pipeline (cpu)"}
	seen := map[string]bool{}
	for _, col := range st.colOrder {
		if seen[col] {
			continue
		}
		seen[col] = true
		pass.BytesRead += st.lines64[col] * 64
	}
	dependent := len(q.Joins) >= 2
	for ji := range builds {
		pass.AddProbes(device.ProbeSet{
			Count:       st.probes[ji],
			StructBytes: builds[ji].ht.Bytes(),
			Dependent:   dependent,
		})
	}
	// Thread-local aggregation tables are small and cache resident.
	pass.AddProbes(device.ProbeSet{Count: st.out, StructBytes: int64(aggEstimate(q)) * aggRowBytes(&q)})
	var cycles float64
	for _, e := range st.evals {
		cycles += filterCyc * float64(e)
	}
	for _, p := range st.probes {
		cycles += probeCyc * float64(p)
	}
	cycles += aggCyc * float64(st.out)
	if st.packed {
		cycles += pack.UnpackCyclesPerElem * float64(st.decoded(q))
	}
	pass.ComputeCycles = cycles
	// One global-cursor style atomic per vector of 1024 entries.
	pass.AtomicOps = st.rows / 1024
	pass.BytesWritten = int64(aggEstimate(q)) * aggRowBytes(&q)
	return pass
}

// priceMonet prices the compiled plan on the MonetDB stand-in:
// operator-at-a-time execution with full materialization between operators
// (Section 2.2). Each selection scans its entire column and materializes a
// candidate list; each join reads the candidate list back, gathers the
// foreign-key column at random, probes, and materializes again; the
// aggregate gathers its value columns through the final candidate list.
// Zone-pruned morsels drop out of every operator's scan, but random
// gathers still address the full column footprint.
func (pl *Plan) priceMonet(st *pipeStats) float64 {
	q, builds := pl.Query, pl.builds
	clk := device.NewClock(device.I76900())
	chargeBuilds(clk, builds)

	// Per column, colScanBytes is what a full-column operator scan reads
	// (surviving morsels only; packed bytes on the compressed encoding) and
	// colFootprint the resident footprint that prices the data-dependent
	// gathers below. A packed operator decodes each value it materializes,
	// which on this CPU costs pack.UnpackCyclesPerElem on top of the
	// interpreter's per-element work; intermediates (candidate lists,
	// payloads) stay plain 4-byte columns.
	unpack := 0.0
	if st.packed {
		unpack = pack.UnpackCyclesPerElem
	}
	in := st.rows
	stage := 0
	for i := range q.FactFilters {
		p := &device.Pass{Label: "monet select " + q.FactFilters[i].Col}
		p.BytesRead = st.colScanBytes(q.FactFilters[i].Col) // full column scan, no short-circuit
		if i > 0 {
			p.BytesRead += in * 4 // read previous candidate list
			// Gather through the candidate list instead of scanning when it
			// is sparse: MonetDB still reads whole BATs, so keep full scan.
		}
		out := st.alive[stage]
		p.BytesWritten = out * 4 // materialize candidate list
		p.ComputeCycles = (monetOpCycles + unpack) * float64(st.rows)
		clk.Charge(p)
		in = out
		stage++
	}
	for ji := range q.Joins {
		p := &device.Pass{Label: "monet join " + q.Joins[ji].Dim}
		p.BytesRead = in * 4 // candidate list
		// Positional gather of the FK column through the candidate list and
		// the hash probe both chase data-dependent addresses; MonetDB's
		// interpreter does not software-pipeline or prefetch them, so they
		// hit the same latency wall as the pipelined engine's probes.
		p.AddProbes(device.ProbeSet{Count: in, StructBytes: st.colFootprint(q.Joins[ji].FactFK), Dependent: true})
		p.AddProbes(device.ProbeSet{Count: st.probes[ji], StructBytes: builds[ji].ht.Bytes(), Dependent: true})
		out := st.alive[stage]
		p.BytesWritten = out * 8 // candidate list + payload column
		p.ComputeCycles = (monetOpCycles + unpack) * float64(in)
		clk.Charge(p)
		in = out
		stage++
	}
	agg := &device.Pass{Label: "monet aggregate"}
	agg.BytesRead = in * int64(4+4*len(q.GroupPayloads()))
	for _, c := range q.AggColumns() {
		agg.AddProbes(device.ProbeSet{Count: in, StructBytes: st.colFootprint(c), Dependent: true})
	}
	agg.AddProbes(device.ProbeSet{Count: in, StructBytes: int64(aggEstimate(q)) * aggRowBytes(&q), Dependent: true})
	agg.ComputeCycles = (monetOpCycles + unpack*float64(len(q.AggColumns()))) * float64(in)
	agg.BytesWritten = int64(aggEstimate(q)) * aggRowBytes(&q)
	clk.Charge(agg)
	return clk.Seconds()
}

// priceOmnisci prices the compiled plan on the Omnisci stand-in: the
// working set lives on the GPU (as in the standalone engine), but each
// operator runs as its own independent-threads kernel in the Figure 4(a)
// style — per-operator materialization, a second read for the offset
// computation, uncoalesced scatter writes, and per-match atomic cursor
// updates. Section 5.2 measures this style ~16x slower than the tile-based
// kernels.
func (pl *Plan) priceOmnisci(st *pipeStats) float64 {
	q, builds := pl.Query, pl.builds
	clk := device.NewClock(device.V100())
	// Build phases are identical to the standalone GPU engine.
	for i := range builds {
		b := &builds[i]
		pass := &device.Pass{Label: "build " + b.spec.Dim, BytesRead: b.bytesRead, Kernels: 1}
		pass.AddProbes(device.ProbeSet{Count: b.inserted, StructBytes: b.ht.Bytes(), Writes: true})
		clk.Charge(pass)
	}

	// Packed runs shrink every operator's column scan and gather footprint;
	// the unpack arithmetic is absorbed by the GPU's compute headroom, as in
	// the standalone engine.
	in := st.rows
	stage := 0
	for i := range q.FactFilters {
		out := st.alive[stage]
		p := &device.Pass{Label: "omnisci select " + q.FactFilters[i].Col, Kernels: 3}
		p.BytesRead = 2 * st.colScanBytes(q.FactFilters[i].Col) // count pass + write pass (Figure 4a)
		if i > 0 {
			p.BytesRead += 2 * in * 4
		}
		p.RandomWrites = out // uncoalesced per-thread writes
		p.AtomicOps = out    // per-match cursor updates
		clk.Charge(p)
		in = out
		stage++
	}
	for ji := range q.Joins {
		out := st.alive[stage]
		p := &device.Pass{Label: "omnisci join " + q.Joins[ji].Dim, Kernels: 2}
		p.BytesRead = in * 4
		p.AddProbes(device.ProbeSet{Count: in, StructBytes: st.colFootprint(q.Joins[ji].FactFK)}) // gather FK
		p.AddProbes(device.ProbeSet{Count: st.probes[ji], StructBytes: builds[ji].ht.Bytes()})
		p.RandomWrites = out * 2 // row ids + payload, uncoalesced
		p.AtomicOps = out
		clk.Charge(p)
		in = out
		stage++
	}
	agg := &device.Pass{Label: "omnisci aggregate", Kernels: 1}
	agg.BytesRead = in * int64(4+4*len(q.GroupPayloads()))
	for _, c := range q.AggColumns() {
		agg.AddProbes(device.ProbeSet{Count: in, StructBytes: st.colFootprint(c)})
	}
	agg.AddProbes(device.ProbeSet{Count: in, StructBytes: int64(aggEstimate(q)) * aggRowBytes(&q)})
	agg.AtomicOps = in // one global atomic per aggregated row
	clk.Charge(agg)
	return clk.Seconds()
}

// runCoprocessor executes the compiled plan with the tile-based GPU
// kernels, but in the coprocessor architecture of Section 3.1: the
// referenced fact columns must first cross PCIe. With perfect overlap of
// transfer and execution the runtime is the maximum of the two, and since
// PCIe bandwidth is far below the GPU's memory bandwidth, the transfer
// dominates — which is why the coprocessor model cannot beat a decent CPU
// implementation (Figure 3). Packed runs ship compressed bytes instead of
// plain ones, and a Residency cache lets repeated queries skip the
// transfer of device-resident packed columns entirely — the two levers
// that make the coprocessor competitive.
func (pl *Plan) runCoprocessor(ms *morselRun) *Result {
	q := pl.Query
	res := pl.runGPU(ms)
	cols := q.ReferencedFactColumns()

	// Zone maps live on the host, so pruned morsels are never shipped: only
	// surviving fact rows cross PCIe (plus the replicated dimensions).
	// Packed runs ship the surviving frames' packed bytes instead; with a
	// residency cache, an admitted miss ships (and pins) the whole packed
	// column so that a resident column is always fully resident, a hit
	// ships nothing, and a refused admission (column larger than the
	// device, cache gone stale) degrades to the ordinary cold transfer.
	var bytes int64
	resident := 0
	for _, c := range cols {
		if ms.packed == nil {
			bytes += ms.scanned * 4
			continue
		}
		fr := ms.packed.Col(c)
		liveBytes := func() int64 {
			var b int64
			for _, m := range ms.live {
				b += fr.BytesRange(m.Lo, m.Hi)
			}
			return b
		}
		if ms.residency != nil {
			full := fr.Bytes()
			switch hit, admitted := ms.residency.Acquire(c, full); {
			case hit:
				resident++
			case admitted:
				bytes += full
			default:
				bytes += liveBytes()
			}
			continue
		}
		bytes += liveBytes()
	}
	for _, j := range q.Joins {
		d := DimTable(pl.ds, j.Dim)
		bytes += int64(d.Rows()) * int64(1+len(j.Filters)+btoi(j.Payload != "")) * 4
	}
	res.TransferBytes = bytes
	res.ResidentCols = resident
	transfer := device.TransferTime(bytes)
	exec := res.Seconds
	res.KernelSeconds = exec
	if transfer > exec {
		res.Seconds = transfer
	}
	return res
}
