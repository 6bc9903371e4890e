package planner

import (
	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/queries"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// HybridEstimate is the cost model's price of one query's hybrid CPU+GPU
// co-execution, alongside the pure placements it competes against. It is
// the scheduler's side of the bargain queries.Plan.ScheduleHybrid executes:
// both derive the CPU/GPU division from sched.CPUFraction and
// sched.SplitHybrid and the GPU shard map from fleet.Split, so the model
// can never price a placement the executor would not produce. Every
// placement it prices is host-resident: the data lives in host memory and
// GPU arms ship it per query. A device-resident fleet is not priced; where
// the working set fits device memory it dominates all of these, so routing
// among them is the placement surface of a host that owns the data.
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
	// Seconds is the hybrid estimate: the slowest arm plus the merge and
	// the host-side ORDER BY.
	Seconds float64

	// PureCPUSeconds prices the pure-CPU placement (the host engine scans
	// everything, nothing crosses the link) and PureGPUSeconds the
	// pure-GPU placement (the same fleet with a zero CPU fraction: every
	// live morsel ships). Hybrid must beat both to be chosen.
	PureCPUSeconds float64
	PureGPUSeconds float64
}

// HybridCost prices one query's hybrid CPU+GPU co-execution over fl at
// the throughput-balanced default split (sched.CPUFraction), against the
// pure-CPU and pure-GPU placements. The hybrid and pure-GPU placements model
// host-resident data — their GPU arms ship every referenced column over
// fl.Link per query — which is what decides the interconnect crossover: on
// PCIe the shipment drowns the GPU's bandwidth advantage and pure CPU wins
// (the paper's Section 6 verdict), while on an NVLink-class link the
// hybrid's combined throughput beats both pure placements.
func HybridCost(fl fleet.Spec, ds *ssb.Dataset, q queries.Query, morsels []ssb.Morsel, packed *ssb.PackedFact) (HybridEstimate, error) {
	fl, err := fl.Normalized()
	if err != nil {
		return HybridEstimate{}, err
	}
	m := newMembers(fl, ds, []queries.Query{q}, morsels, packed)
	est := m.price(sched.CPUFraction(device.I76900(), fl.Device, fl.GPUs))
	est.PureCPUSeconds = m.price(1).Seconds
	est.PureGPUSeconds = m.price(0).Seconds
	return est, nil
}

// ChoosePlacement routes one query among the host-resident placements
// (queries.PlacementCPU, PlacementGPU or PlacementHybrid): hybrid is chosen
// only when HybridCost says it strictly beats every pure placement,
// otherwise the cheaper of pure CPU and pure GPU wins. On PCIe the
// shipment-bound GPU arm loses to the host engine for scan-heavy queries
// (the paper's coprocessor verdict); on an NVLink-class link the hybrid
// split wins — the crossover the regression tests pin on both
// interconnects.
func ChoosePlacement(fl fleet.Spec, ds *ssb.Dataset, q queries.Query, morsels []ssb.Morsel, packed *ssb.PackedFact) (string, HybridEstimate, error) {
	est, err := HybridCost(fl, ds, q, morsels, packed)
	if err != nil {
		return "", HybridEstimate{}, err
	}
	return pick(est.PureCPUSeconds, est.PureGPUSeconds, est.Seconds), est, nil
}

// pick routes among the host-resident placements: hybrid only when it
// strictly beats both pure placements, otherwise the cheaper of pure CPU
// and pure GPU, CPU on a tie.
func pick(cpu, gpu, hybrid float64) string {
	best, bestSec := queries.PlacementCPU, cpu
	if gpu < bestSec {
		best, bestSec = queries.PlacementGPU, gpu
	}
	if hybrid < bestSec {
		best = queries.PlacementHybrid
	}
	return best
}
