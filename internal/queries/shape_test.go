package queries

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// shapeDS is a small fact table (8 tiles) for the shape tests: morsel
// counts above 8 clamp, counts below do not.
var shapeDS = ssb.GenerateRows(1 << 14)

// TestShapeNormalize pins the canonical spelling of representative shapes
// and the refusals.
func TestShapeNormalize(t *testing.T) {
	rows := shapeDS.Lineorder.Rows()
	for _, tc := range []struct {
		in   Shape
		want Shape
		err  string
	}{
		{in: Shape{Engine: "cpu", Partitions: -3}, want: Shape{Engine: EngineCPU}},
		{in: Shape{Engine: "monetdb", Partitions: 16, Link: "nvlink"}, want: Shape{Engine: EngineMonet, Partitions: 16}},
		{in: Shape{Engine: "gpu", GPUs: 4, Partitions: 2}, want: Shape{Engine: EngineGPU, GPUs: 4, Link: "pcie", Partitions: 4}},
		{in: Shape{Engine: "gpu", GPUs: 2, Link: "NVLink", Partitions: 99, Packed: true},
			want: Shape{Engine: EngineGPU, GPUs: 2, Link: "nvlink", Partitions: 8, Packed: true}},
		{in: Shape{Placement: " Hybrid "}, want: Shape{Engine: EngineGPU, Placement: PlacementHybrid, GPUs: 1, Link: "pcie", Partitions: 2}},
		{in: Shape{Placement: "auto", GPUs: 4}, want: Shape{Engine: EngineGPU, Placement: PlacementAuto, GPUs: 4, Link: "pcie", Partitions: 5}},
		{in: Shape{Placement: "gpu", Engine: "gpu"}, want: Shape{Engine: EngineGPU, Placement: PlacementGPU, GPUs: 1, Link: "pcie", Partitions: 2}},
		// placement=cpu is the CPU engine shape: no GPUs, no link, the
		// requested morsels.
		{in: Shape{Placement: "cpu", GPUs: 4, Link: "nvlink", Partitions: 16, Packed: true},
			want: Shape{Engine: EngineCPU, Placement: PlacementCPU, Partitions: 16, Packed: true}},
		{in: Shape{Placement: "cpu", Engine: "cpu"}, want: Shape{Engine: EngineCPU, Placement: PlacementCPU}},
		{in: Shape{}, err: `serve: unknown engine ""`},
		{in: Shape{Engine: "tpu"}, err: `serve: unknown engine "tpu"`},
		{in: Shape{Placement: "moon"}, err: `serve: unknown placement "moon"`},
		{in: Shape{Placement: "auto", Engine: "hyper"}, err: "placement routing owns engine choice"},
		{in: Shape{Placement: "hybrid", Engine: "cpu"}, err: "placement routing owns engine choice"},
		{in: Shape{Engine: "cpu", GPUs: 2}, err: "fleet execution runs the tile-based kernels"},
		{in: Shape{Engine: "gpu", GPUs: 2, Link: "carrier-pigeon"}, err: `fleet: unknown interconnect "carrier-pigeon"`},
		{in: Shape{Engine: "gpu", GPUs: 65}, err: "fleet: 65 GPUs exceeds the 64-device fleet bound"},
		{in: Shape{Placement: "cpu", GPUs: 1 << 20}, err: "exceeds the 64-device fleet bound"},
	} {
		got, err := tc.in.Normalize(rows)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%+v: err %v, want %q", tc.in, err, tc.err)
			}
		case err != nil:
			t.Errorf("%+v: %v", tc.in, err)
		case got != tc.want:
			t.Errorf("%+v normalizes to %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestScheduleShapes pins the one shape switch: each normalized shape gets
// the schedule its builder makes, and an unresolved "auto" is refused.
func TestScheduleShapes(t *testing.T) {
	q, err := ByID("q2.1")
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(shapeDS, q)
	rows := shapeDS.Lineorder.Rows()
	for _, tc := range []struct {
		in      Shape
		kinds   []sched.Kind
		cpuFrac float64
	}{
		{Shape{Engine: "hyper", Partitions: 3}, []sched.Kind{sched.KindCPU}, 0},
		{Shape{Engine: "cpu"}, []sched.Kind{sched.KindCPU}, 1},
		{Shape{Engine: "coproc"}, []sched.Kind{sched.KindCoproc}, 0},
		{Shape{Placement: "cpu", GPUs: 2}, []sched.Kind{sched.KindCPU}, 1},
		{Shape{Engine: "gpu", GPUs: 2}, []sched.Kind{sched.KindGPU, sched.KindGPU}, 0},
		{Shape{Placement: "gpu", GPUs: 2}, []sched.Kind{sched.KindCPU, sched.KindGPU, sched.KindGPU}, 0},
		{Shape{Placement: "hybrid", GPUs: 2}, []sched.Kind{sched.KindCPU, sched.KindGPU, sched.KindGPU}, -1},
		{Shape{GPUs: 2, Link: "nvlink", Partitions: 8}.Place(PlacementGPU), []sched.Kind{sched.KindCPU, sched.KindGPU, sched.KindGPU}, 0},
	} {
		sh, err := tc.in.Normalize(rows)
		if err != nil {
			t.Fatal(err)
		}
		s, cpuFrac, err := p.Schedule(sh, RunOptions{})
		if err != nil {
			t.Fatalf("%+v: %v", tc.in, err)
		}
		var kinds []sched.Kind
		for _, a := range s.Assignments {
			kinds = append(kinds, a.Executor.Kind())
		}
		if fmt.Sprint(kinds) != fmt.Sprint(tc.kinds) {
			t.Errorf("%+v: executors %v, want %v", tc.in, kinds, tc.kinds)
		}
		if want := max(sh.Partitions, 1); s.Morsels != want {
			t.Errorf("%+v: %d morsels, want the shape's %d", tc.in, s.Morsels, want)
		}
		if tc.cpuFrac >= 0 && cpuFrac != tc.cpuFrac || tc.cpuFrac < 0 && (cpuFrac <= 0 || cpuFrac >= 1) {
			t.Errorf("%+v: cpu share %v, want %v", tc.in, cpuFrac, tc.cpuFrac)
		}
	}
	auto, err := Shape{Placement: "auto"}.Normalize(rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Schedule(auto, RunOptions{}); err == nil {
		t.Error("an unresolved auto shape was scheduled")
	}
}

// TestPureCPUSplitIsCPUEngine pins the fact that lets placement "cpu"
// normalize to the CPU engine shape: a hybrid schedule with every morsel on
// the CPU arm prices bit-equal to the CPU engine, with equal rows, on every
// catalog query, plain and packed, at any morsel count, GPU arm and link.
func TestPureCPUSplitIsCPUEngine(t *testing.T) {
	packed := shapeDS.Pack()
	for _, q := range All() {
		p := Compile(shapeDS, q)
		for _, enc := range []*ssb.PackedFact{nil, packed} {
			for _, parts := range []int{0, 2, 16} {
				opts := RunOptions{Partition: PartitionOptions{Partitions: parts, Packed: enc}}
				want, err := p.RunScheduled(p.ScheduleEngine(EngineCPU, opts))
				if err != nil {
					t.Fatal(err)
				}
				for _, gpus := range []int{1, 4} {
					for _, link := range []fleet.Interconnect{fleet.PCIe(), fleet.NVLink()} {
						s, frac, err := p.ScheduleHybrid(fleet.Spec{GPUs: gpus, Link: link}, 1, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := p.RunScheduled(s)
						if err != nil {
							t.Fatal(err)
						}
						if frac != 1 || got.Result.Seconds != want.Result.Seconds || !got.Result.Equal(want.Result) ||
							got.MergeBytes != 0 || got.Result.TransferBytes != 0 {
							t.Errorf("%s packed=%v parts=%d gpus=%d %s: hybrid(frac=1) %.15g s, merge %d, ship %d; cpu engine %.15g s",
								q.ID, enc != nil, parts, gpus, link.Name, got.Result.Seconds, got.MergeBytes,
								got.Result.TransferBytes, want.Result.Seconds)
						}
					}
				}
			}
		}
	}
}

// FuzzShape pins Normalize as the one validator: it never panics, it is
// idempotent, every refusal of an out-of-range or unknown input happens,
// and the key of a normalized shape decodes back to that shape — so equal
// keys mean equal shapes.
func FuzzShape(f *testing.F) {
	f.Add("gpu", "", 4, "nvlink", 16, true, 1<<14)
	f.Add("", "auto", 0, "", -1, false, 1<<20)
	f.Add("cpu", "cpu", 65, "pcie", 2, true, 0)
	f.Add("Standalone GPU", " HYBRID ", 64, "NVLink", 1<<30, false, 3000)
	f.Add("monetdb", "", 1<<40, "infiniband", 0, false, -5)
	f.Fuzz(func(t *testing.T, engine, placement string, gpus int, link string, parts int, packed bool, rows int) {
		in := Shape{Engine: Engine(engine), Placement: placement, GPUs: gpus, Link: link, Partitions: parts, Packed: packed}
		sh, err := in.Normalize(rows)

		_, engineErr := ParseEngine(engine)
		_, placementErr := ParsePlacement(placement)
		_, linkErr := fleet.ParseInterconnect(link)
		switch {
		case engine != "" && engineErr != nil, placement != "" && placementErr != nil,
			(placement != "" || gpus > 0) && linkErr != nil, gpus > fleet.MaxGPUs:
			if err == nil {
				t.Fatalf("%+v: accepted as %+v", in, sh)
			}
			return
		case err != nil:
			return // a valid spelling of an invalid combination
		}

		again, err := sh.Normalize(rows)
		if err != nil || again != sh {
			t.Fatalf("not idempotent: %+v -> %+v -> %+v (%v)", in, sh, again, err)
		}
		if sh.GPUs < 0 || sh.GPUs > fleet.MaxGPUs || sh.Partitions < 0 {
			t.Fatalf("%+v normalizes out of range: %+v", in, sh)
		}
		fields := strings.Split(sh.Key(), "\x00")
		if len(fields) != 6 {
			t.Fatalf("%+v: key has %d fields", sh, len(fields))
		}
		n, err1 := strconv.Atoi(fields[1])
		g, err2 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil || (fields[2] != "packed" && fields[2] != "plain") {
			t.Fatalf("%+v: malformed key %q", sh, sh.Key())
		}
		decoded := Shape{Engine: Engine(fields[0]), Partitions: n, Packed: fields[2] == "packed", GPUs: g, Link: fields[4], Placement: fields[5]}
		if decoded != sh {
			t.Fatalf("key %q decodes to %+v, not %+v", sh.Key(), decoded, sh)
		}
	})
}
