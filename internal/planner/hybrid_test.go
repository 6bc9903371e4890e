package planner

import (
	"fmt"
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/queries"
	"crystal/internal/ssb"
)

// hybridDS is the crossover dataset: big enough that scans dominate the
// replicated dimension builds, the regime the placement pin is about.
var hybridDS = ssb.GenerateRows(200_000)

// TestHybridCrossover is the tentpole's placement pin: hybrid
// co-execution must LOSE to pure CPU on PCIe for the whole scan-heavy
// q1.x flight (the interconnect cannot feed the GPU arm — the paper's
// coprocessor verdict), and WIN on NVLink against both pure placements
// for q1.1, the flight's wide-filter scan (combined throughput exceeds
// either arm alone). The highly selective q1.2/q1.3 stay CPU-won even on
// NVLink — the CPU engine loads later columns selectively while the
// host-resident GPU arm must ship them whole — so the NVLink win is
// pinned where scans, not selections, dominate. Both the executed
// schedules and the cost model must land on the same side, and
// ChoosePlacement must route accordingly.
func TestHybridCrossover(t *testing.T) {
	for _, id := range []string{"q1.1", "q1.2", "q1.3"} {
		q, err := queries.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		plan := queries.Compile(hybridDS, q)
		opts := queries.RunOptions{}
		opts.Partition.Partitions = 64 // fine split so the balanced fraction is honored
		morsels := plan.Morsels(64)

		for _, tc := range []struct {
			link       fleet.Interconnect
			hybridWins bool
		}{
			{fleet.PCIe(), false},
			{fleet.NVLink(), id == "q1.1"},
		} {
			if tc.link.Name == fleet.NVLink().Name && !tc.hybridWins {
				// q1.2/q1.3 on NVLink sit in the selective regime where
				// neither side is pinned; the q1.x contrast is covered by
				// the PCIe arm and the q1.1 NVLink win.
				continue
			}
			fl := fleet.Spec{GPUs: 1, Link: tc.link}
			hybrid, err := runHybrid(plan, fl, -1, opts)
			if err != nil {
				t.Fatal(err)
			}
			cpuOnly, err := runHybrid(plan, fl, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			gpuOnly, err := runHybrid(plan, fl, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			choice, est, err := ChoosePlacement(fl, hybridDS, q, morsels, nil)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s over %s", id, tc.link.Name)
			if tc.hybridWins {
				if hybrid.Result.Seconds >= cpuOnly.Result.Seconds {
					t.Errorf("%s: executed hybrid (%.9gs) did not beat pure CPU (%.9gs)",
						label, hybrid.Result.Seconds, cpuOnly.Result.Seconds)
				}
				if hybrid.Result.Seconds >= gpuOnly.Result.Seconds {
					t.Errorf("%s: executed hybrid (%.9gs) did not beat pure GPU (%.9gs)",
						label, hybrid.Result.Seconds, gpuOnly.Result.Seconds)
				}
				if est.Seconds >= est.PureCPUSeconds || est.Seconds >= est.PureGPUSeconds {
					t.Errorf("%s: model prices hybrid %.9gs against cpu %.9gs / gpu %.9gs — should win both",
						label, est.Seconds, est.PureCPUSeconds, est.PureGPUSeconds)
				}
				if choice != queries.PlacementHybrid {
					t.Errorf("%s: planner chose %q, want hybrid", label, choice)
				}
			} else {
				if hybrid.Result.Seconds <= cpuOnly.Result.Seconds {
					t.Errorf("%s: executed hybrid (%.9gs) should lose to pure CPU (%.9gs) — PCIe cannot feed the GPU arm",
						label, hybrid.Result.Seconds, cpuOnly.Result.Seconds)
				}
				if est.Seconds <= est.PureCPUSeconds {
					t.Errorf("%s: model prices hybrid %.9gs under pure CPU %.9gs on PCIe",
						label, est.Seconds, est.PureCPUSeconds)
				}
				if choice != queries.PlacementCPU {
					t.Errorf("%s: planner chose %q, want cpu", label, choice)
				}
			}
		}
	}
}

// TestHybridCostShape pins the model's accounting identities: the ship
// bytes vanish at frac 1, cover every referenced live byte at frac 0, and
// the estimate is the slowest arm plus the merge.
func TestHybridCostShape(t *testing.T) {
	q, err := queries.ByID("q2.1")
	if err != nil {
		t.Fatal(err)
	}
	morsels := hybridDS.Partition(64)
	fl := fleet.Spec{GPUs: 2, Link: fleet.NVLink()}
	est, err := HybridCost(fl, hybridDS, q, morsels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.GPUs != 2 || len(est.DeviceSeconds) != 2 {
		t.Fatalf("estimate covers %d device arms (GPUs=%d), want 2", len(est.DeviceSeconds), est.GPUs)
	}
	if est.CPUFrac <= 0 || est.CPUFrac >= 0.5 {
		t.Errorf("balanced CPU fraction %v outside the minority-share regime", est.CPUFrac)
	}
	if est.ShipBytes <= 0 {
		t.Error("hybrid estimate ships nothing; data is host-resident")
	}
	if est.MergeBytes != int64(q.GroupEstimate())*16*2 {
		t.Errorf("merge bytes %d, want 16 per estimated group per GPU arm", est.MergeBytes)
	}
	slowest := est.CPUSeconds
	for _, ds := range est.DeviceSeconds {
		if ds > slowest {
			slowest = ds
		}
	}
	if got, want := est.Seconds, slowest+est.MergeSeconds; got != want {
		t.Errorf("estimate %.15g != slowest arm + merge %.15g", got, want)
	}
	// The executor and the model must agree on the ship volume byte for
	// byte, on the hybrid and the pure-GPU placements: both derive the split
	// and shard map from the same sched helpers. On the layout clustered by
	// orderdate the date filters prune morsels, and the pure-GPU arms own
	// them without shipping them.
	pruning := 0
	for _, d := range []*ssb.Dataset{ds, ds.ClusterBy("orderdate")} {
		eachShipRun(d, func(label string, plan *queries.Plan, fl fleet.Spec, opts queries.RunOptions, morsels []ssb.Morsel) {
			est, err := HybridCost(fl, d, plan.Query, morsels, opts.Partition.Packed)
			if err != nil {
				t.Fatal(err)
			}
			nfl, err := fl.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			gpu := newMembers(nfl, d, []queries.Query{plan.Query}, morsels, opts.Partition.Packed).price(0)
			for _, run := range []struct {
				frac float64
				ship int64
			}{{-1, est.ShipBytes}, {0, gpu.ShipBytes}} {
				r, err := runHybrid(plan, fl, run.frac, opts)
				if err != nil {
					t.Fatal(err)
				}
				if r.Result.TransferBytes != run.ship {
					t.Errorf("%s frac %v: executor shipped %d bytes, model prices %d — split or shard map diverged",
						label, run.frac, r.Result.TransferBytes, run.ship)
				}
			}
			if PruneEstimate(morsels, plan.Query).Pruned > 0 {
				pruning++
			}
		})
	}
	if pruning == 0 {
		t.Error("no run prunes a morsel")
	}

	if _, err := HybridCost(fleet.Spec{GPUs: fleet.MaxGPUs + 1}, hybridDS, q, morsels, nil); err == nil {
		t.Error("oversized fleet accepted")
	}
	if _, _, err := ChoosePlacement(fleet.Spec{GPUs: -2}, hybridDS, q, morsels, nil); err == nil {
		t.Error("negative fleet accepted")
	}
}

// BenchmarkChoosePlacement is the per-layer benchmark of placement=auto:
// one ChoosePlacement per statement over 16 morsels of the package dataset,
// for the catalog and for the 64 generated statements of the golden set
// (about half of whose joins carry no filter), on both interconnects.
// us/stmt is the wall clock of one choice.
func BenchmarkChoosePlacement(b *testing.B) {
	all := goldenStatements()
	morsels := ds.Partition(16)
	for _, set := range []struct {
		name string
		qs   []queries.Query
	}{{"catalog", all[:13]}, {"generated", all[13:]}} {
		for _, link := range fleet.Interconnects() {
			fl := fleet.Spec{GPUs: 2, Link: link}
			b.Run(set.name+"/"+link.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, q := range set.qs {
						if _, _, err := ChoosePlacement(fl, ds, q, morsels, nil); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(set.qs)), "us/stmt")
			})
		}
	}
}

// eachShipRun calls check for every catalog query on d × {3, 7, 16}
// morsels × plain/packed × both links, on a 2-GPU fleet: the runs whose
// shipped bytes the model must price exactly as the executor meters them.
func eachShipRun(d *ssb.Dataset, check func(label string, plan *queries.Plan, fl fleet.Spec, opts queries.RunOptions, morsels []ssb.Morsel)) {
	pf := d.Pack()
	for _, q := range queries.All() {
		plan := queries.Compile(d, q)
		for _, parts := range []int{3, 7, 16} {
			for _, packed := range []*ssb.PackedFact{nil, pf} {
				for _, link := range fleet.Interconnects() {
					opts := queries.RunOptions{Partition: queries.PartitionOptions{Partitions: parts, Packed: packed}}
					label := fmt.Sprintf("%s %d morsels packed=%t %s", q.ID, parts, packed != nil, link.Name)
					check(label, plan, fleet.Spec{GPUs: 2, Link: link}, opts, d.Partition(parts))
				}
			}
		}
	}
}

// runHybrid executes a plan on the hybrid placement the cost model priced:
// build the schedule, call RunScheduled.
func runHybrid(p *queries.Plan, fl fleet.Spec, frac float64, opts queries.RunOptions) (*queries.ScheduledResult, error) {
	s, _, err := p.ScheduleHybrid(fl, frac, opts)
	if err != nil {
		return nil, err
	}
	return p.RunScheduled(s)
}
