package planner

import (
	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/queries"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// Placement names where the planner routes one query among the
// host-resident placements the serving layer exposes.
type Placement string

// The placements ChoosePlacement decides between. All three scan
// host-resident data: PlaceCPU is the standalone CPU engine, PlaceGPU the
// GPU fleet with every referenced column shipped over the interconnect
// per query (the multi-device coprocessor), and PlaceHybrid the CPU and
// GPU arms co-executing a split morsel set.
const (
	PlaceCPU    Placement = "cpu"
	PlaceGPU    Placement = "gpu"
	PlaceHybrid Placement = "hybrid"
)

// HybridEstimate is the cost model's price of one query's hybrid CPU+GPU
// co-execution, alongside the pure placements it competes against. It is
// the scheduler's side of the bargain queries.Plan.ScheduleHybrid executes:
// both derive the CPU/GPU division from sched.CPUFraction and
// sched.SplitHybrid and the GPU shard map from fleet.Assign, so the model
// can never price a placement the executor would not produce.
type HybridEstimate struct {
	// GPUs is the fleet size of the GPU arm and CPUFrac the live-row
	// fraction the split routes to the host CPU engine.
	GPUs    int
	CPUFrac float64
	// CPUSeconds is the CPU arm's estimated time inside the hybrid
	// schedule and DeviceSeconds each GPU arm's (shard scan and probe
	// pipeline, overlapped with its interconnect shipment).
	CPUSeconds    float64
	DeviceSeconds []float64
	// ShipBytes is the GPU arms' referenced-column traffic: hybrid models
	// host-resident data, so every GPU-routed live morsel crosses the
	// link per query.
	ShipBytes int64
	// MergeBytes is the partial-aggregate traffic (16 bytes per estimated
	// group per active GPU arm — the CPU arm merges host-side for free)
	// and MergeSeconds its interconnect time.
	MergeBytes   int64
	MergeSeconds float64
	// Seconds is the hybrid estimate: the slowest arm plus the merge.
	Seconds float64

	// PureCPUSeconds prices the pure-CPU placement (the host engine scans
	// everything, nothing crosses the link) and PureGPUSeconds the
	// pure-GPU placement (the same fleet with a zero CPU fraction: every
	// live morsel ships). Hybrid must beat both to be chosen.
	PureCPUSeconds float64
	PureGPUSeconds float64
	// FleetSeconds prices the device-resident fleet placement (FleetCost)
	// for reference: when the working set fits device memory a resident
	// fleet dominates every host-resident placement, which is why
	// ChoosePlacement routes only among the latter — the placement
	// surface of a host that owns the data.
	FleetSeconds float64
}

// scanCostFor prices the fact-filter scan in whichever encoding the run
// uses.
func scanCostFor(dev *device.Spec, packed *ssb.PackedFact, rows int64, filterCols []string) float64 {
	if packed != nil {
		return ScanCostPacked(dev, packed, rows, filterCols)
	}
	return ScanCost(dev, rows, len(filterCols))
}

// hybridArms prices the hybrid schedule at one CPU fraction: the split
// comes from sched.SplitHybrid, the GPU shard map from fleet.Assign with
// zero capacity (host-resident data — everything spills), the CPU arm
// runs on the host device and each GPU arm overlaps its shipment with
// execution, exactly the shape queries.Plan.ScheduleHybrid builds. stats
// are the query's join statistics, computed once by the caller.
func hybridArms(fl fleet.Spec, q queries.Query, stats []JoinStats, morsels []ssb.Morsel, packed *ssb.PackedFact, frac float64) HybridEstimate {
	refCols := q.ReferencedFactColumns()
	var filterCols []string
	for _, f := range q.FactFilters {
		filterCols = append(filterCols, f.Col)
	}
	cpu := device.I76900()
	pruned := queries.PruneMorsels(morsels, q.FactFilters)
	split := sched.SplitHybrid(morsels, pruned, frac)

	est := HybridEstimate{GPUs: fl.GPUs, CPUFrac: frac}
	var makespan float64
	if len(split.CPU) > 0 {
		var rows int64
		for _, mi := range split.CPU {
			if !pruned[mi] {
				rows += int64(morsels[mi].Rows())
			}
		}
		est.CPUSeconds = scanCostFor(cpu, packed, rows, filterCols) + Cost(cpu, rows, stats)
		makespan = est.CPUSeconds
	}

	shardBytes := func(m ssb.Morsel) int64 { return ssb.MorselStorageBytes(packed, m) }
	spillCost := func(m ssb.Morsel) int64 {
		var b int64
		for _, c := range refCols {
			b += ssb.MorselColumnBytes(packed, m, c)
		}
		return b
	}
	gpuMorsels := make([]ssb.Morsel, len(split.GPU))
	for i, mi := range split.GPU {
		gpuMorsels[i] = morsels[mi]
	}
	shards := fleet.Assign(gpuMorsels, fl.GPUs, 0, shardBytes)
	for _, sh := range shards {
		if len(sh.Morsels) == 0 {
			est.DeviceSeconds = append(est.DeviceSeconds, 0)
			continue
		}
		var rows, ship int64
		for _, li := range sh.Morsels {
			mi := split.GPU[li]
			if pruned[mi] {
				continue // host-side zone check: neither scanned nor shipped
			}
			rows += int64(morsels[mi].Rows())
			ship += spillCost(morsels[mi])
		}
		sec := scanCostFor(fl.Device, packed, rows, filterCols) + Cost(fl.Device, rows, stats)
		est.ShipBytes += ship
		if t := fl.Link.TransferTime(ship); t > sec {
			sec = t // shipment overlaps execution, coprocessor style
		}
		est.DeviceSeconds = append(est.DeviceSeconds, sec)
		if sec > makespan {
			makespan = sec
		}
		est.MergeBytes += int64(q.GroupEstimate()) * q.AggRowBytes()
	}
	est.MergeSeconds = fl.Link.TransferTime(est.MergeBytes)
	est.Seconds = makespan + est.MergeSeconds
	return est
}

// HybridCost prices one query's hybrid CPU+GPU co-execution over fl at
// the throughput-balanced default split (sched.CPUFraction), against the
// pure-CPU, pure-GPU and device-resident fleet placements. The hybrid and
// pure-GPU placements model host-resident data — their GPU arms ship every
// referenced column over fl.Link per query — which is what decides the
// interconnect crossover: on PCIe the shipment drowns the GPU's bandwidth
// advantage and pure CPU wins (the paper's Section 6 verdict), while on an
// NVLink-class link the hybrid's combined throughput beats both pure
// placements.
func HybridCost(fl fleet.Spec, ds *ssb.Dataset, q queries.Query, morsels []ssb.Morsel, packed *ssb.PackedFact) (HybridEstimate, error) {
	fl, err := fl.Normalized()
	if err != nil {
		return HybridEstimate{}, err
	}
	cpu := device.I76900()
	frac := sched.CPUFraction(cpu, fl.Device, fl.GPUs)
	stats := Stats(ds, q)
	est := hybridArms(fl, q, stats, morsels, packed, frac)

	var filterCols []string
	for _, f := range q.FactFilters {
		filterCols = append(filterCols, f.Col)
	}
	liveRows := PruneEstimate(morsels, q).ScannedRows
	est.PureCPUSeconds = scanCostFor(cpu, packed, liveRows, filterCols) + Cost(cpu, liveRows, stats)
	est.PureGPUSeconds = hybridArms(fl, q, stats, morsels, packed, 0).Seconds
	// The ORDER BY phase runs where each placement's merged groups live:
	// host-side for the CPU and mixed-kind hybrid placements (heap-vs-sort,
	// TopNCost), on the devices for the pure-GPU arm — the same routing
	// queries.Plan.RunScheduled derives from the schedule's executor kinds.
	est.Seconds += OrderCost(cpu, q)
	est.PureCPUSeconds += OrderCost(cpu, q)
	est.PureGPUSeconds += OrderCost(fl.Device, q)
	est.FleetSeconds = fleetCost(fl, q, stats, morsels, packed).Seconds
	return est, nil
}

// ChoosePlacement routes one query among the host-resident placements:
// hybrid is chosen only when HybridCost says it strictly beats every pure
// placement, otherwise the cheaper of pure CPU and pure GPU wins. On PCIe
// the shipment-bound GPU arm loses to the host engine for scan-heavy
// queries (the paper's coprocessor verdict); on an NVLink-class link the
// hybrid split wins — the crossover the regression tests pin on both
// interconnects.
func ChoosePlacement(fl fleet.Spec, ds *ssb.Dataset, q queries.Query, morsels []ssb.Morsel, packed *ssb.PackedFact) (Placement, HybridEstimate, error) {
	est, err := HybridCost(fl, ds, q, morsels, packed)
	if err != nil {
		return "", HybridEstimate{}, err
	}
	best, bestSec := PlaceCPU, est.PureCPUSeconds
	if est.PureGPUSeconds < bestSec {
		best, bestSec = PlaceGPU, est.PureGPUSeconds
	}
	if est.Seconds < bestSec {
		best = PlaceHybrid
	}
	return best, est, nil
}
