package sched

import (
	"strings"
	"testing"

	"crystal/internal/device"
	"crystal/internal/ssb"
)

// fakeExec satisfies Executor for schedule-shape tests; Validate never
// calls Execute.
type fakeExec struct{ kind Kind }

func (f fakeExec) Kind() Kind                 { return f.kind }
func (f fakeExec) Device() int                { return -1 }
func (f fakeExec) Execute(Assignment) Partial { return Partial{} }

func TestValidate(t *testing.T) {
	ex := fakeExec{KindCPU}
	ok := Schedule{
		Morsels: 4,
		Assignments: []Assignment{
			{Executor: ex, Morsels: []int{0, 2}, Spilled: []int{2}},
			{Executor: ex, Morsels: []int{1, 3}},
		},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}

	cases := []struct {
		name string
		s    Schedule
		want string
	}{
		{"out of range", Schedule{Morsels: 2, Assignments: []Assignment{
			{Executor: ex, Morsels: []int{0, 5}},
			{Executor: ex, Morsels: []int{1}},
		}}, "outside"},
		{"negative index", Schedule{Morsels: 2, Assignments: []Assignment{
			{Executor: ex, Morsels: []int{-1, 0, 1}},
		}}, "outside"},
		{"duplicate", Schedule{Morsels: 2, Assignments: []Assignment{
			{Executor: ex, Morsels: []int{0, 1}},
			{Executor: ex, Morsels: []int{1}},
		}}, "twice"},
		{"unassigned", Schedule{Morsels: 3, Assignments: []Assignment{
			{Executor: ex, Morsels: []int{0, 2}},
		}}, "unassigned"},
		{"foreign spill", Schedule{Morsels: 2, Assignments: []Assignment{
			{Executor: ex, Morsels: []int{0}, Spilled: []int{1}},
			{Executor: ex, Morsels: []int{1}},
		}}, "does not own"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: invalid schedule accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestCPUFraction(t *testing.T) {
	cpu, gpu := device.I76900(), device.V100()
	frac := CPUFraction(cpu, gpu, 1)
	want := cpu.ReadBandwidth / (cpu.ReadBandwidth + gpu.ReadBandwidth)
	if frac != want {
		t.Errorf("CPUFraction(1 GPU) = %v, want %v", frac, want)
	}
	if frac <= 0 || frac >= 0.5 {
		t.Errorf("CPU fraction %v should be a small minority share", frac)
	}
	// More GPU arms shrink the CPU's share monotonically.
	if f4 := CPUFraction(cpu, gpu, 4); f4 >= frac {
		t.Errorf("4-GPU fraction %v not below 1-GPU fraction %v", f4, frac)
	}
	// gpus < 1 clamps to one arm rather than dividing by zero weight.
	if got := CPUFraction(cpu, gpu, 0); got != want {
		t.Errorf("CPUFraction(0 GPUs) = %v, want the 1-GPU value %v", got, want)
	}
	// Degenerate zero-bandwidth specs route everything to the GPU arm.
	if got := CPUFraction(&device.Spec{}, &device.Spec{}, 2); got != 0 {
		t.Errorf("zero-bandwidth fraction = %v, want 0", got)
	}
}

// splitMorsels builds n equal-sized morsels for split tests.
func splitMorsels(n int) []ssb.Morsel {
	ds := ssb.GenerateRows(n * ssb.MorselAlign)
	return ds.Partition(n)
}

func TestSplitHybrid(t *testing.T) {
	morsels := splitMorsels(8)
	pruned := make([]bool, 8)

	// frac <= 0: pure GPU, every index in order.
	sp := SplitHybrid(morsels, pruned, 0)
	if len(sp.CPU) != 0 || len(sp.GPU) != 8 {
		t.Fatalf("frac 0 split = %d CPU / %d GPU, want 0/8", len(sp.CPU), len(sp.GPU))
	}
	for i, mi := range sp.GPU {
		if mi != i {
			t.Fatalf("frac 0 GPU order %v not identity", sp.GPU)
		}
	}

	// frac >= 1: pure CPU.
	sp = SplitHybrid(morsels, pruned, 1)
	if len(sp.CPU) != 8 || len(sp.GPU) != 0 {
		t.Fatalf("frac 1 split = %d CPU / %d GPU, want 8/0", len(sp.CPU), len(sp.GPU))
	}

	// A quarter share takes the live prefix: 2 of 8 equal morsels.
	sp = SplitHybrid(morsels, pruned, 0.25)
	if len(sp.CPU) != 2 || sp.CPU[0] != 0 || sp.CPU[1] != 1 {
		t.Fatalf("frac 0.25 CPU arm = %v, want the [0 1] prefix", sp.CPU)
	}
	if len(sp.GPU) != 6 {
		t.Fatalf("frac 0.25 GPU arm holds %d morsels, want 6", len(sp.GPU))
	}

	// Every index lands on exactly one arm.
	seen := map[int]int{}
	for _, mi := range sp.CPU {
		seen[mi]++
	}
	for _, mi := range sp.GPU {
		seen[mi]++
	}
	for i := 0; i < 8; i++ {
		if seen[i] != 1 {
			t.Fatalf("morsel %d assigned %d times", i, seen[i])
		}
	}

	// Zone-pruned morsels always ride the CPU arm (free to scan there,
	// and the GPU arm never ships a byte for them), and do not count
	// toward the CPU's live-row share.
	pruned[3], pruned[6] = true, true
	sp = SplitHybrid(morsels, pruned, 0.25)
	cpuSet := map[int]bool{}
	for _, mi := range sp.CPU {
		cpuSet[mi] = true
	}
	if !cpuSet[3] || !cpuSet[6] {
		t.Fatalf("pruned morsels not on the CPU arm: %v", sp.CPU)
	}
	liveCPU := 0
	for _, mi := range sp.CPU {
		if !pruned[mi] {
			liveCPU++
		}
	}
	if liveCPU != 2 {
		t.Errorf("CPU arm holds %d live morsels, want 2 (a quarter of 6 live, rounded up)", liveCPU)
	}
}

// TestLabel pins the executor naming convention telemetry and trace spans
// key on: bare kind for host executors, kind+index for fleet devices.
func TestLabel(t *testing.T) {
	cases := []struct {
		kind   Kind
		device int
		want   string
	}{
		{KindCPU, -1, "cpu"},
		{KindCoproc, -1, "coproc"},
		{KindGPU, 0, "gpu0"},
		{KindGPU, 3, "gpu3"},
	}
	for _, c := range cases {
		if got := Label(c.kind, c.device); got != c.want {
			t.Errorf("Label(%q, %d) = %q, want %q", c.kind, c.device, got, c.want)
		}
	}
}

// TestAccTable pins the accumulator table's contract: At appends a vector for
// a new key and reports it fresh, returns the same storage for a known key
// through any amount of growth, a returned slice cannot be appended into its
// neighbour, Each visits every group once, and a nil table is an empty one.
func TestAccTable(t *testing.T) {
	const slots, groups = 3, 1000
	tab := NewAccTable(slots, 0) // no room reserved: every group grows the table
	for k := int64(0); k < groups; k++ {
		acc, fresh := tab.At(k * 7)
		if !fresh || len(acc) != slots || cap(acc) != slots {
			t.Fatalf("At(new %d) = len %d cap %d fresh %v, want a fresh vector of exactly %d slots", k*7, len(acc), cap(acc), fresh, slots)
		}
		for s := range acc {
			acc[s] = k*10 + int64(s)
		}
	}
	if acc, fresh := tab.At(7); fresh || acc[1] != 11 {
		t.Errorf("At(known key) = %v fresh %v, want the stored vector", acc, fresh)
	} else {
		acc[1]++ // writes through to the table
	}
	if tab.Len() != groups {
		t.Errorf("Len() = %d, want %d", tab.Len(), groups)
	}
	seen := map[int64]bool{}
	tab.Each(func(k int64, acc []int64) {
		want := k/7*10 + 1
		if k == 7 {
			want++
		}
		if seen[k] || len(acc) != slots || acc[1] != want {
			t.Errorf("Each(%d) = %v (seen before: %v), want slot 1 = %d", k, acc, seen[k], want)
		}
		seen[k] = true
	})
	if len(seen) != groups {
		t.Errorf("Each visited %d groups, want %d", len(seen), groups)
	}

	var none *AccTable
	none.Each(func(int64, []int64) { t.Error("Each on a nil table called fn") })
	if none.Len() != 0 {
		t.Errorf("nil table Len() = %d, want 0", none.Len())
	}
}

// TestGroupCount: a partial counts the groups of its one aggregate table,
// and a partial that never executed (no table) holds none.
func TestGroupCount(t *testing.T) {
	tab := NewAccTable(2, 3)
	for k := int64(1); k <= 3; k++ {
		tab.At(k)
	}
	if got := (&Partial{Accs: tab}).GroupCount(); got != 3 {
		t.Errorf("GroupCount() = %d, want 3", got)
	}
	if got := (&Partial{}).GroupCount(); got != 0 {
		t.Errorf("empty GroupCount() = %d, want 0", got)
	}
}
