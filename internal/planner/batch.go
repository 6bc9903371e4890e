package planner

import (
	"errors"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/queries"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// BatchEstimate is the cost model's price of one shared-scan batch on each
// host-resident placement: one scan of the union footprint over the union
// of the members' live morsels, charged once, plus each member's own
// probe/aggregate/sort delta. It is the batch-shaped sibling of
// HybridEstimate — both derive splits and shard maps from the same
// scheduler primitives the executor uses, so the model can never price a
// shape queries.RunBatchScheduled would not produce.
type BatchEstimate struct {
	// Members is the batch size and GPUs the fleet size of the GPU arms.
	Members int
	GPUs    int
	// CPUSeconds, GPUSeconds and HybridSeconds price the batch on the
	// pure-CPU, pure-GPU and throughput-balanced hybrid placements.
	CPUSeconds    float64
	GPUSeconds    float64
	HybridSeconds float64
	// CPUFrac is the hybrid split's live-row CPU fraction.
	CPUFrac float64
}

// BatchCost prices one shared-scan batch of compatible queries on the
// host-resident placements: the shared scan (union footprint over the union
// of live morsels) is charged once per arm, and every member adds its own
// probe/aggregate/sort delta — the batch-shaped HybridCost. placement=auto
// batch requests route through ChooseBatchPlacement exactly as singles
// route through ChoosePlacement.
func BatchCost(fl fleet.Spec, ds *ssb.Dataset, qs []queries.Query, morsels []ssb.Morsel, packed *ssb.PackedFact) (BatchEstimate, error) {
	if len(qs) == 0 {
		return BatchEstimate{}, errors.New("planner: empty batch")
	}
	fl, err := fl.Normalized()
	if err != nil {
		return BatchEstimate{}, err
	}
	m := newMembers(fl, ds, qs, morsels, packed)
	frac := sched.CPUFraction(device.I76900(), fl.Device, fl.GPUs)
	return BatchEstimate{
		Members:       len(qs),
		GPUs:          fl.GPUs,
		CPUSeconds:    m.price(1, 0).Seconds,
		GPUSeconds:    m.price(0, 0).Seconds,
		HybridSeconds: m.price(frac, 0).Seconds,
		CPUFrac:       frac,
	}, nil
}

// ChooseBatchPlacement routes one shared-scan batch among the host-resident
// placements: hybrid only when it strictly beats both pure placements,
// otherwise the cheaper of pure CPU and pure GPU — the batch-shaped
// ChoosePlacement.
func ChooseBatchPlacement(fl fleet.Spec, ds *ssb.Dataset, qs []queries.Query, morsels []ssb.Morsel, packed *ssb.PackedFact) (string, BatchEstimate, error) {
	est, err := BatchCost(fl, ds, qs, morsels, packed)
	if err != nil {
		return "", BatchEstimate{}, err
	}
	return pick(est.CPUSeconds, est.GPUSeconds, est.HybridSeconds), est, nil
}
