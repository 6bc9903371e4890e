package queries

import (
	"time"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// ScheduleHybrid splits the morsels between the host CPU engine and the
// GPU fleet, which scan disjoint morsel sets concurrently and merge their
// partial aggregates host-side exactly as fleet merges do. The division is
// zone-map aware (sched.SplitHybrid): pruned morsels stay with the CPU arm,
// and the CPU arm additionally takes frac of the live rows, with the rest
// range-sharded over the fleet's devices. frac 0 is the pure-GPU
// host-resident placement (every morsel ships over the link), 1 the
// pure-CPU placement, and a negative frac asks for the default division,
// balanced by resident scan throughput (sched.CPUFraction). The returned
// fraction is the resolved one. Rows are identical to a monolithic run at
// any frac.
//
// Hybrid placement models the coprocessor world: the data is
// host-resident, so every GPU-routed morsel's referenced columns cross
// the interconnect (overlapped with execution) while the CPU arm scans
// host memory for free. That shipment is exactly what makes hybrid lose
// on PCIe and win on NVLink — planner.HybridCost prices it from this same
// split, so the model and the executor can never disagree about shape.
//
// Partitions below fl.GPUs+1 are raised to fl.GPUs+1 so every arm can get
// morsels where the count allows.
func (p *Plan) ScheduleHybrid(fl fleet.Spec, frac float64, opts RunOptions) (sched.Schedule, float64, error) {
	fl, err := fl.Normalized()
	if err != nil {
		return sched.Schedule{}, 0, err
	}
	var t0 time.Time
	if opts.Trace {
		t0 = time.Now()
	}
	if frac < 0 {
		frac = sched.CPUFraction(device.I76900(), fl.Device, fl.GPUs)
	}
	if frac > 1 {
		frac = 1
	}
	if opts.Partition.Partitions < fl.GPUs+1 {
		opts.Partition.Partitions = fl.GPUs + 1
	}
	opts.Partition.Residency = nil // single-device coprocessor knob
	ms := p.morselRun(opts)
	split := sched.SplitHybrid(ms.morsels, ms.pruned, frac)

	s := sched.Schedule{Link: fl.Link, Morsels: len(ms.morsels), Packed: ms.packed != nil}
	s.Assignments = append(s.Assignments, sched.Assignment{
		Executor: engineExecutor{p: p, ms: ms, e: EngineCPU},
		Morsels:  split.CPU,
		// Host arm: no spill, and its partial merges for free.
	})

	// The GPU arm range-shards its sub-list with the same scheduler the
	// fleet uses, capacity 0: data is host-resident, so every owned morsel
	// is spilled and its referenced columns cross the link per query.
	gpuMorsels := make([]ssb.Morsel, len(split.GPU))
	for i, mi := range split.GPU {
		gpuMorsels[i] = ms.morsels[mi]
	}
	shardBytes := func(m ssb.Morsel) int64 { return ssb.MorselStorageBytes(ms.packed, m) }
	shards := fleet.Assign(gpuMorsels, fl.GPUs, 0, shardBytes)
	for d := range shards {
		owned := make([]int, len(shards[d].Morsels))
		for i, li := range shards[d].Morsels {
			owned[i] = split.GPU[li]
		}
		var res Residency
		if ms.packed != nil && d < len(opts.Fleet.Residency) {
			res = opts.Fleet.Residency[d]
		}
		s.Assignments = append(s.Assignments, sched.Assignment{
			Executor: &gpuDeviceExecutor{p: p, ms: ms, dev: fl.Device, link: fl.Link, idx: d, res: res},
			Morsels:  owned,
			Spilled:  owned,
			Merge:    true,
		})
	}
	if opts.Trace {
		s.Trace = true
		s.BuildWall = time.Since(t0)
	}
	return s, frac, nil
}
