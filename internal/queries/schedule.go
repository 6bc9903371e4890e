package queries

import (
	"time"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/sched"
	"crystal/internal/ssb"
	"crystal/internal/trace"
)

// ExecutorResult is one executor's slice of a scheduled run: what it was
// assigned, what it scanned, and its share of the simulated time and
// interconnect traffic. It is the placement-agnostic telemetry every run
// path reports (FleetDevice is its fleet-shaped rendering).
type ExecutorResult struct {
	// Kind classifies the executor; Device is its fleet index (-1 for host
	// executors).
	Kind   sched.Kind `json:"kind"`
	Device int        `json:"device"`
	// Morsels is the number of morsels assigned; Pruned counts those its
	// zone maps skipped, and Rows the fact rows it actually scanned.
	Morsels int   `json:"morsels"`
	Pruned  int   `json:"pruned"`
	Rows    int64 `json:"rows"`
	// Seconds is the executor's simulated time, spill shipment overlap
	// included.
	Seconds float64 `json:"seconds"`
	// ShipBytes is the interconnect traffic the executor's host-resident
	// morsels cost, and ResidentCols the shipments a residency cache
	// elided.
	ShipBytes    int64 `json:"ship_bytes"`
	ResidentCols int   `json:"resident_cols"`
	// Groups is the size of the executor's partial aggregate table.
	Groups int `json:"groups"`
}

// ScheduledResult is the outcome of one scheduled execution: the merged
// result plus the per-executor telemetry and the merge-phase pricing —
// the one result shape of every placement (single engine, fleet, hybrid).
type ScheduledResult struct {
	// Result is the merged result: Seconds is the schedule makespan (the
	// slowest executor plus the partial-aggregate merge), TransferBytes
	// the total interconnect shipment and ResidentCols the shipments
	// residency caches elided.
	Result *Result
	// Executors has one entry per assignment, idle executors included.
	Executors []ExecutorResult
	// MergeBytes is the partial-aggregate traffic that crossed the
	// interconnect (16 bytes per group per merging executor) and
	// MergeSeconds its transfer time.
	MergeBytes   int64
	MergeSeconds float64
	// Trace is the run's span tree, nil unless the schedule asked for
	// tracing (RunOptions.Trace): a run span with schedule, per-assignment
	// execute (kernel/transfer children) and merge spans whose simulated
	// seconds and byte attributions reproduce this result exactly
	// (trace.Verify holds by construction).
	Trace *trace.Span
}

// restrict narrows the run to the given morsel indices: foreign morsels
// are marked pruned (the engines' launches skip them without touching
// memory), so the restricted run scans exactly the owned live morsels.
// The full index set returns the receiver unchanged, which keeps
// single-executor schedules byte-identical to unscheduled runs.
func (ms *morselRun) restrict(idx []int) *morselRun {
	if len(idx) == len(ms.morsels) {
		return ms
	}
	prunedX := make([]bool, len(ms.morsels))
	for i := range prunedX {
		prunedX[i] = true
	}
	out := &morselRun{
		morsels:   ms.morsels,
		pruned:    prunedX,
		lim:       ms.lim,
		packed:    ms.packed,
		residency: ms.residency,
	}
	for _, mi := range idx {
		if ms.pruned[mi] {
			continue
		}
		prunedX[mi] = false
		out.live = append(out.live, ms.morsels[mi])
		out.scanned += int64(ms.morsels[mi].Rows())
	}
	return out
}

// engineExecutor runs one engine over its assigned morsels. It is the
// executor behind the single-placement schedules (partitioned runs, the
// coprocessor path) and the CPU arm of hybrid schedules.
type engineExecutor struct {
	p  *Plan
	ms *morselRun
	e  Engine
	// seat, when set, is the plan's slice of a scan pass somebody else ran
	// over exactly ms (RunBatchScheduled's shared pass): a CPU-family engine
	// prices it instead of scanning again. Only seatMember sets it, after
	// verifying the extent.
	seat *scanSeat
}

// scanSeat is one member's outcome of a scanKernel pass: its raw rows and
// the access statistics its engine prices.
type scanSeat struct {
	res *Result
	st  *pipeStats
}

func (x engineExecutor) Kind() sched.Kind {
	switch x.e {
	case EngineGPU, EngineOmnisci:
		return sched.KindGPU
	case EngineCoproc:
		return sched.KindCoproc
	}
	return sched.KindCPU
}

func (x engineExecutor) Device() int { return -1 }

func (x engineExecutor) Execute(a sched.Assignment) sched.Partial {
	ms := x.ms.restrict(a.Morsels)
	var res *Result
	switch {
	case x.e == EngineGPU:
		res = x.p.runGPU(ms)
	case x.e == EngineCoproc:
		res = x.p.runCoprocessor(ms)
	case cpuFamily(x.e):
		var st *pipeStats
		if x.seat != nil {
			res, st = x.seat.res, x.seat.st
		} else {
			res, st = x.p.scan(ms)
		}
		res.Seconds = x.p.price(x.e, st)
	default:
		panic("queries: unknown engine " + string(x.e))
	}
	pruned := 0
	for _, mi := range a.Morsels {
		if x.ms.pruned[mi] {
			pruned++
		}
	}
	// Split the overlapped clock for trace attribution: on-device engines
	// are all kernel; the coprocessor recomputes its transfer term from the
	// same bytes and bandwidth model, so max(kernel, ship) == Seconds
	// exactly.
	kernel, ship := res.Seconds, 0.0
	if x.e == EngineCoproc {
		kernel = res.KernelSeconds
		ship = device.TransferTime(res.TransferBytes)
	}
	return sched.Partial{
		Accs:          res.accs,
		Seconds:       res.Seconds,
		KernelSeconds: kernel,
		ShipSeconds:   ship,
		Rows:          ms.scanned,
		Pruned:        pruned,
		ShipBytes:     res.TransferBytes,
		ResidentCols:  res.ResidentCols,
	}
}

// gpuDeviceExecutor runs the tile-based GPU kernel on one fleet device
// over its assigned morsels: the launch skips every tile outside the
// assignment (and its zone-pruned morsels), so the device charges exactly
// its own traffic. Spilled morsels are host-resident: their referenced
// columns cross the link, overlapped with execution, with an optional
// per-device residency cache able to elide the shipment on packed runs.
type gpuDeviceExecutor struct {
	p    *Plan
	ms   *morselRun
	dev  *device.Spec
	link fleet.Interconnect
	idx  int
	res  Residency
}

func (x *gpuDeviceExecutor) Kind() sched.Kind { return sched.KindGPU }

func (x *gpuDeviceExecutor) Device() int { return x.idx }

func (x *gpuDeviceExecutor) Execute(a sched.Assignment) sched.Partial {
	ms := x.ms
	refCols := x.p.Query.ReferencedFactColumns()
	spilled := make(map[int]bool, len(a.Spilled))
	for _, mi := range a.Spilled {
		spilled[mi] = true
	}
	// The device's launch skips every tile outside its assignment (and its
	// zone-pruned morsels), so its pass meters exactly the owned traffic.
	prunedD := make([]bool, len(ms.morsels))
	for i := range prunedD {
		prunedD[i] = true
	}
	// Per referenced column, liveSpill is what this query's cold run ships
	// (spilled morsels its zone maps did not prune) and fullSpill the
	// device's whole spilled range — what an admitted residency miss ships
	// and pins, so that a resident column is always fully resident
	// regardless of which query populated it (the same rule the
	// coprocessor's residency cache follows). fullSpill is only consulted
	// through a residency cache, so cacheless runs skip it.
	var part sched.Partial
	var live []ssb.Morsel
	liveSpill := map[string]int64{}
	fullSpill := map[string]int64{}
	for _, mi := range a.Morsels {
		m := ms.morsels[mi]
		if spilled[mi] && x.res != nil {
			for _, c := range refCols {
				fullSpill[c] += ssb.MorselColumnBytes(ms.packed, m, c)
			}
		}
		if ms.pruned[mi] {
			part.Pruned++
			continue // zone maps are host-side: pruned morsels neither scan nor ship
		}
		prunedD[mi] = false
		live = append(live, m)
		part.Rows += int64(m.Rows())
		if spilled[mi] {
			for _, c := range refCols {
				liveSpill[c] += ssb.MorselColumnBytes(ms.packed, m, c)
			}
		}
	}
	msD := &morselRun{
		morsels: ms.morsels,
		pruned:  prunedD,
		live:    live,
		scanned: part.Rows,
		lim:     ms.lim,
		packed:  ms.packed,
	}
	resD := x.p.runGPUOn(x.dev, msD)

	for _, c := range refCols {
		if x.res == nil {
			part.ShipBytes += liveSpill[c]
			continue
		}
		if fullSpill[c] == 0 {
			continue
		}
		switch hit, admitted := x.res.Acquire(c, fullSpill[c]); {
		case hit:
			part.ResidentCols++
		case admitted:
			part.ShipBytes += fullSpill[c] // populate the whole spilled range
		default:
			part.ShipBytes += liveSpill[c] // ordinary cold transfer
		}
	}

	// Spill shipment overlaps with execution, coprocessor style: the
	// slower of the two bounds the device.
	part.Accs = resD.accs
	part.KernelSeconds = resD.Seconds
	part.ShipSeconds = x.link.TransferTime(part.ShipBytes)
	part.Seconds = part.KernelSeconds
	if part.ShipSeconds > part.Seconds {
		part.Seconds = part.ShipSeconds
	}
	return part
}

// ScheduleEngine places every morsel on a single engine executor (the
// coprocessor path included), with the fact table split into
// opts.Partition.Partitions zone-mapped morsels. Rows are identical at any
// partition count; simulated seconds are identical too whenever no morsel
// is pruned (morsel boundaries are tile-aligned, so the per-morsel traffic
// statistics sum exactly to the monolithic pass's), and strictly cheaper
// when zone maps skip morsels.
func (p *Plan) ScheduleEngine(e Engine, opts RunOptions) sched.Schedule {
	var t0 time.Time
	if opts.Trace {
		t0 = time.Now()
	}
	ms := p.morselRun(opts)
	all := make([]int, len(ms.morsels))
	for i := range all {
		all[i] = i
	}
	s := sched.Schedule{
		Assignments: []sched.Assignment{{
			Executor: engineExecutor{p: p, ms: ms, e: e},
			Morsels:  all,
		}},
		Morsels: len(ms.morsels),
		Packed:  ms.packed != nil,
	}
	if opts.Trace {
		s.Trace = true
		s.BuildWall = time.Since(t0)
	}
	return s
}

// ScheduleFleet range-shards the morsels over the fleet's devices
// (fleet.Assign, spill accounting against each device's MemoryBytes): each
// device runs the tile-based GPU kernel over its own shard concurrently —
// one launch per device, every foreign tile skipped, so a device charges
// exactly its shard's traffic — and the partial aggregates merge on the
// host across the interconnect. Partitions below fl.GPUs are raised to
// fl.GPUs so every device gets a shard where the morsel count allows one.
//
// Rows are identical to a single-device run at any shard count. Simulated
// seconds follow the bandwidth model — near-linear scaling on scan-bound
// queries until the per-device launch and replicated dimension builds
// dominate, with the merge term growing with group cardinality and
// shrinking with interconnect bandwidth. Shards that exceed device memory
// degrade gracefully: the spilled morsels stay host-resident and their
// referenced columns cross the interconnect, priced like a coprocessor
// transfer (overlapped with execution, packed runs shipping packed bytes,
// and opts.Fleet.Residency able to elide them entirely).
func (p *Plan) ScheduleFleet(fl fleet.Spec, opts RunOptions) (sched.Schedule, error) {
	fl, err := fl.Normalized()
	if err != nil {
		return sched.Schedule{}, err
	}
	var t0 time.Time
	if opts.Trace {
		t0 = time.Now()
	}
	if opts.Partition.Partitions < fl.GPUs {
		opts.Partition.Partitions = fl.GPUs
	}
	opts.Partition.Residency = nil // single-device coprocessor knob; fleet uses Fleet.Residency
	ms := p.morselRun(opts)

	// A shard's storage footprint is its full fact rows — every column,
	// because the device must serve any query against its shard — in
	// whichever encoding this run scans. The footprint function is shared
	// with planner.FleetCost, so the model can never place shards
	// differently than this executor does.
	shardBytes := func(m ssb.Morsel) int64 { return ssb.MorselStorageBytes(ms.packed, m) }
	shards := fleet.Assign(ms.morsels, fl.GPUs, fl.Device.MemoryBytes, shardBytes)

	s := sched.Schedule{Link: fl.Link, Morsels: len(ms.morsels), Packed: ms.packed != nil}
	for d := range shards {
		sh := &shards[d]
		var res Residency
		if ms.packed != nil && d < len(opts.Fleet.Residency) {
			res = opts.Fleet.Residency[d]
		}
		s.Assignments = append(s.Assignments, sched.Assignment{
			Executor: &gpuDeviceExecutor{p: p, ms: ms, dev: fl.Device, link: fl.Link, idx: d, res: res},
			Morsels:  sh.Morsels,
			Spilled:  sh.Spilled,
			Merge:    true,
		})
	}
	if opts.Trace {
		s.Trace = true
		s.BuildWall = time.Since(t0)
	}
	return s, nil
}

// RunScheduled is the single execution entry point: it runs each assignment on its executor, merges the partial aggregates
// key-wise on the host (slot-wise accumulator merges, every operator
// associative and commutative, so rows are identical to a monolithic run at
// any split; the first partial's table is adopted, not copied), takes the
// makespan over the concurrent executors, and prices the partial-aggregate
// merge of the link-crossing assignments. A query with ORDER BY then runs
// the sort phase on the placement's own hardware (executeSort) and appends
// its priced seconds. Every placement goes through this method, so merge,
// sort, stats and telemetry behave identically across them.
func (p *Plan) RunScheduled(s sched.Schedule) (*ScheduledResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	q := p.Query
	out := &ScheduledResult{}
	merged := &Result{}
	var accs *sched.AccTable
	// Tracing is opt-in per schedule; the untraced path must not allocate a
	// single span, so every trace touch below is nil-guarded.
	var runSpan *trace.Span
	var runStart time.Time
	if s.Trace {
		runStart = time.Now()
		runSpan = &trace.Span{Phase: trace.PhaseRun, Children: []*trace.Span{
			{Phase: trace.PhaseSchedule, Wall: s.BuildWall},
		}}
	}
	var makespan float64
	pruned := 0
	for i := range s.Assignments {
		a := s.Assignments[i]
		er := ExecutorResult{Kind: a.Executor.Kind(), Device: a.Executor.Device(), Morsels: len(a.Morsels)}
		var span *trace.Span
		if runSpan != nil {
			span = &trace.Span{
				Name:    sched.Label(er.Kind, er.Device),
				Phase:   trace.PhaseExecute,
				Morsels: len(a.Morsels),
			}
			runSpan.Children = append(runSpan.Children, span)
		}
		if len(a.Morsels) > 0 { // empty assignment: idle executor, no launch, no time
			var execStart time.Time
			if span != nil {
				execStart = time.Now()
			}
			part := a.Executor.Execute(a)
			er.Pruned = part.Pruned
			er.Rows = part.Rows
			er.Seconds = part.Seconds
			er.ShipBytes = part.ShipBytes
			er.ResidentCols = part.ResidentCols
			er.Groups = part.GroupCount()
			accs = p.agg.mergeTable(accs, part.Accs)
			if a.Merge {
				out.MergeBytes += int64(part.GroupCount()) * aggRowBytes(&q)
			}
			if part.Seconds > makespan {
				makespan = part.Seconds
			}
			pruned += part.Pruned
			merged.TransferBytes += part.ShipBytes
			merged.ResidentCols += part.ResidentCols
			if span != nil {
				span.Wall = time.Since(execStart)
				span.Sim = part.Seconds
				span.Bytes = part.ShipBytes
				span.Rows = part.Rows
				span.Pruned = part.Pruned
				span.Children = append(span.Children, &trace.Span{
					Phase: trace.PhaseKernel, Sim: part.KernelSeconds,
				})
				if part.ShipBytes > 0 || part.ShipSeconds > 0 {
					span.Children = append(span.Children, &trace.Span{
						Phase: trace.PhaseTransfer, Sim: part.ShipSeconds, Bytes: part.ShipBytes,
					})
				}
			}
		}
		out.Executors = append(out.Executors, er)
	}
	finalizeGroups(&q, p.agg, accs, merged)
	if out.MergeBytes > 0 {
		out.MergeSeconds = s.Link.TransferTime(out.MergeBytes)
	}
	merged.Seconds = makespan + out.MergeSeconds
	// The ORDER BY phase runs on the placement's own hardware after the
	// merge; its priced stages extend the run's simulated seconds and, when
	// traced, become the run's sort span (one sort-pass child per stage, the
	// children summing exactly to the span).
	var so *sortOutcome
	if len(q.OrderBy) > 0 {
		var sortStart time.Time
		if runSpan != nil {
			sortStart = time.Now()
		}
		so = p.executeSort(s, resultRows(&q, merged))
		merged.Ordered = so.rows
		merged.Seconds += so.seconds
		if runSpan != nil {
			sp := &trace.Span{Phase: trace.PhaseSort, Sim: so.seconds, Wall: time.Since(sortStart)}
			for _, st := range so.stages {
				sp.Children = append(sp.Children, &trace.Span{
					Name: st.label, Phase: trace.PhaseSortPass, Sim: st.sim, Bytes: st.bytes,
				})
			}
			runSpan.Children = append(runSpan.Children, sp)
		}
	}
	merged.Morsels = s.Morsels
	merged.Pruned = pruned
	merged.Packed = s.Packed
	out.Result = merged
	if runSpan != nil {
		if out.MergeBytes > 0 {
			runSpan.Children = append(runSpan.Children, &trace.Span{
				Phase: trace.PhaseMerge, Sim: out.MergeSeconds, Bytes: out.MergeBytes,
			})
		}
		runSpan.Sim = merged.Seconds
		runSpan.Wall = time.Since(runStart)
		out.Trace = runSpan
	}
	return out, nil
}
