package planner

import (
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/queries"
)

// TestBatchCostSubadditive pins the economics that justify shared scans in
// the cost model: a batch of overlapping queries prices strictly under the
// sum of its members priced alone on every arm (the union scan is charged
// once), yet strictly above any single member (the probe/aggregate deltas
// still accumulate).
func TestBatchCostSubadditive(t *testing.T) {
	ids := []string{"q1.1", "q1.2", "q1.3"}
	qs := make([]queries.Query, len(ids))
	for i, id := range ids {
		q, err := queries.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	plan := queries.Compile(hybridDS, qs[0])
	morsels := plan.Morsels(64)
	fl := fleet.Spec{GPUs: 1, Link: fleet.PCIe()}

	var sumCPU, sumGPU float64
	var singles []BatchEstimate
	for i := range qs {
		est, err := BatchCost(fl, hybridDS, qs[i:i+1], morsels, nil)
		if err != nil {
			t.Fatal(err)
		}
		if est.Members != 1 || est.CPUSeconds <= 0 || est.GPUSeconds <= 0 || est.HybridSeconds <= 0 {
			t.Fatalf("singleton estimate degenerate: %+v", est)
		}
		singles = append(singles, est)
		sumCPU += est.CPUSeconds
		sumGPU += est.GPUSeconds
	}
	batch, err := BatchCost(fl, hybridDS, qs, morsels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Members != len(qs) {
		t.Errorf("batch estimate reports %d members, want %d", batch.Members, len(qs))
	}
	if batch.CPUSeconds >= sumCPU {
		t.Errorf("batch CPU %.9f not strictly under sum of singles %.9f", batch.CPUSeconds, sumCPU)
	}
	if batch.GPUSeconds >= sumGPU {
		t.Errorf("batch GPU %.9f not strictly under sum of singles %.9f", batch.GPUSeconds, sumGPU)
	}
	for i, s := range singles {
		if batch.CPUSeconds <= s.CPUSeconds {
			t.Errorf("batch CPU %.9f not strictly above member %d alone %.9f", batch.CPUSeconds, i, s.CPUSeconds)
		}
	}
}

// TestChooseBatchPlacementRouting pins the routing rule: the returned
// placement is the argmin of the three arms with hybrid admitted only when
// it strictly beats both pure placements, and on PCIe the scan-heavy q1.x
// batch lands on CPU — the paper's coprocessor verdict carried over to
// batches.
func TestChooseBatchPlacementRouting(t *testing.T) {
	ids := []string{"q1.1", "q1.2", "q1.3"}
	qs := make([]queries.Query, len(ids))
	for i, id := range ids {
		q, err := queries.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	morsels := queries.Compile(hybridDS, qs[0]).Morsels(64)

	for _, link := range fleet.Interconnects() {
		fl := fleet.Spec{GPUs: 1, Link: link}
		place, est, err := ChooseBatchPlacement(fl, hybridDS, qs, morsels, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := queries.PlacementCPU
		if est.GPUSeconds < est.CPUSeconds {
			want = queries.PlacementGPU
		}
		if est.HybridSeconds < est.CPUSeconds && est.HybridSeconds < est.GPUSeconds {
			want = queries.PlacementHybrid
		}
		if place != want {
			t.Errorf("%s: routed to %s, estimates say %s (cpu=%.9f gpu=%.9f hybrid=%.9f)",
				link.Name, place, want, est.CPUSeconds, est.GPUSeconds, est.HybridSeconds)
		}
		if link.Name == fleet.PCIe().Name && place != queries.PlacementCPU {
			t.Errorf("PCIe batch routed to %s, want cpu (shipment drowns the GPU arm)", place)
		}
	}

	if _, _, err := ChooseBatchPlacement(fleet.Spec{GPUs: 1, Link: fleet.PCIe()}, hybridDS, nil, morsels, nil); err == nil {
		t.Error("empty batch priced without error")
	}
}
