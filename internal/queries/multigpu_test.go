package queries

import (
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/ssb"
)

// runPCIe runs p on numGPUs V100s hanging off the host's PCIe fabric with
// default options — the Section 5.5 "Distributed+Hybrid" extension.
func runPCIe(p *Plan, numGPUs int) (*Result, error) {
	sr, err := runFleet(p, fleet.Spec{GPUs: numGPUs, Link: fleet.PCIe()}, RunOptions{})
	if err != nil {
		return nil, err
	}
	return sr.Result, nil
}

func TestMultiGPUMatchesSingleGPU(t *testing.T) {
	for _, q := range All() {
		single := Compile(testDS, q).Run(EngineGPU)
		for _, k := range []int{1, 2, 4, 7} {
			multi, err := runPCIe(Compile(testDS, q), k)
			if err != nil {
				t.Fatal(err)
			}
			if !multi.Equal(single) {
				t.Errorf("%s on %d GPUs disagrees with single GPU", q.ID, k)
			}
		}
	}
}

func TestMultiGPUScalesDown(t *testing.T) {
	// Sharding the fact table across k devices divides the probe-phase
	// traffic; with replicated builds the speedup is sub-linear but the
	// time must be monotonically non-increasing for SSB-sized aggregates.
	q, _ := ByID("q2.1")
	prev := 0.0
	for _, k := range []int{1, 2, 4, 8} {
		res, err := runPCIe(Compile(testDS, q), k)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 && res.Seconds > prev*1.05 {
			t.Errorf("%d GPUs (%.6f) slower than fewer (%.6f)", k, res.Seconds, prev)
		}
		prev = res.Seconds
	}
	// 4 GPUs should beat 1 clearly on a fact-bound query.
	one, _ := runPCIe(Compile(testDS, q), 1)
	four, _ := runPCIe(Compile(testDS, q), 4)
	if four.Seconds >= one.Seconds {
		t.Errorf("4 GPUs (%.6f) should beat 1 (%.6f)", four.Seconds, one.Seconds)
	}
}

func TestMultiGPUValidation(t *testing.T) {
	q, _ := ByID("q1.1")
	if _, err := runPCIe(Compile(testDS, q), 0); err == nil {
		t.Error("0 GPUs accepted")
	}
	// More GPUs than rows still works (extra shards are empty).
	tiny := ssb.GenerateRows(3)
	res, err := runPCIe(Compile(tiny, q), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(Compile(tiny, q).Run(EngineGPU)) {
		t.Error("over-sharded result differs")
	}
}

func TestSliceFactView(t *testing.T) {
	sub := testDS.SliceFact(10, 20)
	if sub.Lineorder.Rows() != 10 {
		t.Fatalf("slice rows = %d", sub.Lineorder.Rows())
	}
	if sub.Lineorder.Revenue[0] != testDS.Lineorder.Revenue[10] {
		t.Error("slice misaligned")
	}
	if sub.Part.Rows() != testDS.Part.Rows() {
		t.Error("dimensions should be shared")
	}
}
