package queries

import (
	"fmt"
	"math/rand"
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/queries/queriestest"
	"crystal/internal/ssb"
)

// diffDS is the differential-harness dataset: big enough that generated
// queries produce non-trivial groups (16 full tiles), small enough that
// 200 queries x 6 engines stay fast under the race detector on one core.
var diffDS = ssb.GenerateRows(32_768)

// diffPacked is diffDS's bit-packed fact encoding, shared by the packed
// fleet arms of the differential harness.
var diffPacked = diffDS.Pack()

// TestDifferentialEnginesAgree is the cross-engine differential harness:
// 200 seeded random queries over the SSB schema, every engine checked
// row-for-row against the map-based reference oracle — the first
// systematic agreement check beyond the 13 hand-written golden queries.
// Every query additionally runs on a seeded-random fleet shape ({1,2,4,8}
// GPUs × {PCIe, NVLink} × {plain, packed}) that must be row-identical to
// the monolithic single-GPU result.
func TestDifferentialEnginesAgree(t *testing.T) {
	const numQueries = 200
	r := rand.New(rand.NewSource(20260726))
	nonEmpty := 0
	for i := 0; i < numQueries; i++ {
		q := RandomQuery(r, diffDS, i, GenOptions{})
		if err := q.Validate(); err != nil {
			t.Fatalf("generator produced invalid query %s: %v\n%s", q.ID, err, q.Describe())
		}
		want := normalizeRef(q, Reference(diffDS, q))
		if len(want.Groups) > 1 || (len(want.Groups) == 1 && want.Groups[0] != 0) {
			nonEmpty++
		}
		plan := Compile(diffDS, q)
		var gpuRun *Result
		for _, e := range Engines() {
			got := plan.Run(e)
			if e == EngineGPU {
				gpuRun = got
			}
			if !got.Equal(want) {
				t.Errorf("%s disagrees with reference on %s (%d vs %d groups)\n%s",
					e, q.ID, len(got.Groups), len(want.Groups), q.Describe())
			}
			if got.Seconds <= 0 {
				t.Errorf("%s/%s: no simulated time", e, q.ID)
			}
		}
		// Partitioned execution must agree with the oracle too; rotate the
		// partition count so the harness covers odd and even splits.
		parts := []int{2, 7, 16, 64}[i%4]
		if got := runEngine(plan, EngineCPU, RunOptions{Partition: PartitionOptions{Partitions: parts}}); !got.Equal(want) {
			t.Errorf("partitioned CPU (%d morsels) disagrees with reference on %s", parts, q.ID)
		}
		// Fleet execution on a seeded-random shape: row-identical to the
		// monolithic single-GPU run (and therefore to the oracle).
		gpus := []int{1, 2, 4, 8}[r.Intn(4)]
		link := fleet.Interconnects()[r.Intn(2)]
		opts := RunOptions{Partition: PartitionOptions{Partitions: parts}}
		if r.Intn(2) == 1 {
			opts.Partition.Packed = diffPacked
		}
		fr, err := runFleet(plan, fleet.Spec{GPUs: gpus, Link: link}, opts)
		if err != nil {
			t.Fatalf("fleet run failed on %s: %v", q.ID, err)
		}
		label := fmt.Sprintf("fleet %dx%s packed=%v on %s", gpus, link.Name, opts.Partition.Packed != nil, q.ID)
		queriestest.SameRows(t, label, fr.Result, gpuRun)
		queriestest.SameRows(t, label+" (oracle)", fr.Result, want)
		// Hybrid co-execution at a seeded-random CPU fraction (plus the
		// default balanced split every fourth query): whatever the split,
		// the merged rows must be identical to the oracle.
		frac := []float64{-1, 0.25, 0.5, 0.75}[r.Intn(4)]
		hr, err := runHybrid(plan, fleet.Spec{GPUs: gpus, Link: link}, frac, opts)
		if err != nil {
			t.Fatalf("hybrid run failed on %s: %v", q.ID, err)
		}
		hlabel := fmt.Sprintf("hybrid frac=%v %dx%s on %s", frac, gpus, link.Name, q.ID)
		queriestest.SameRows(t, hlabel, hr.Result, gpuRun)
		queriestest.SameRows(t, hlabel+" (oracle)", hr.Result, want)
	}
	// The harness is only load-bearing if the generator produces real work:
	// most queries must return at least one non-trivial row.
	if nonEmpty < numQueries/2 {
		t.Errorf("only %d/%d generated queries returned rows; generator too narrow", nonEmpty, numQueries)
	}
}

// TestDifferentialOrderedAgree extends the differential harness to the
// ORDER BY / LIMIT / multi-aggregate surface: seeded Extended queries must
// be row- AND order-identical (Result.Equal compares the Ordered slice
// position by position, every aggregate value included) across all six
// engines, partitioned CPU execution, and seeded-random fleet and hybrid
// placements. Each LIMIT query is additionally checked against its own
// unlimited twin — the top-N path (heap or truncated merge) must return
// exactly the first k rows of the full sort.
func TestDifferentialOrderedAgree(t *testing.T) {
	const numQueries = 120
	r := rand.New(rand.NewSource(20260808))
	ordered, limited, multi := 0, 0, 0
	for i := 0; i < numQueries; i++ {
		q := RandomQuery(r, diffDS, i, GenOptions{Extended: true})
		if err := q.Validate(); err != nil {
			t.Fatalf("generator produced invalid query %s: %v\n%s", q.ID, err, q.Describe())
		}
		if len(q.OrderBy) > 0 {
			ordered++
		}
		if q.Limit > 0 {
			limited++
		}
		if q.Aggs != nil {
			multi++
		}
		want := normalizeRef(q, Reference(diffDS, q))
		plan := Compile(diffDS, q)
		var gpuRun *Result
		for _, e := range Engines() {
			got := plan.Run(e)
			if e == EngineGPU {
				gpuRun = got
			}
			if !got.Equal(want) {
				t.Errorf("%s disagrees with reference on %s\n%s", e, q.ID, q.Describe())
			}
			if got.Seconds <= 0 {
				t.Errorf("%s/%s: no simulated time", e, q.ID)
			}
		}
		parts := []int{2, 7, 16, 64}[i%4]
		if got := runEngine(plan, EngineCPU, RunOptions{Partition: PartitionOptions{Partitions: parts}}); !got.Equal(want) {
			t.Errorf("partitioned CPU (%d morsels) disagrees with reference on %s", parts, q.ID)
		}
		gpus := []int{1, 2, 4, 8}[r.Intn(4)]
		link := fleet.Interconnects()[r.Intn(2)]
		opts := RunOptions{Partition: PartitionOptions{Partitions: parts}}
		if r.Intn(2) == 1 {
			opts.Partition.Packed = diffPacked
		}
		fr, err := runFleet(plan, fleet.Spec{GPUs: gpus, Link: link}, opts)
		if err != nil {
			t.Fatalf("fleet run failed on %s: %v", q.ID, err)
		}
		if !fr.Result.Equal(want) {
			t.Errorf("fleet %dx%s packed=%v returned different rows or order on %s\n%s",
				gpus, link.Name, opts.Partition.Packed != nil, q.ID, q.Describe())
		}
		queriestest.SameRows(t, fmt.Sprintf("ordered fleet vs gpu on %s", q.ID), fr.Result, gpuRun)
		frac := []float64{-1, 0.25, 0.5, 0.75}[r.Intn(4)]
		hr, err := runHybrid(plan, fleet.Spec{GPUs: gpus, Link: link}, frac, opts)
		if err != nil {
			t.Fatalf("hybrid run failed on %s: %v", q.ID, err)
		}
		if !hr.Result.Equal(want) {
			t.Errorf("hybrid frac=%v %dx%s returned different rows or order on %s\n%s",
				frac, gpus, link.Name, q.ID, q.Describe())
		}
		// Top-N property: the limited result must be the prefix of the full
		// ordering (rowCmp is total, so the prefix is unique).
		if q.Limit > 0 {
			full := q
			full.Limit = 0
			fres := Compile(diffDS, full).Run(EngineCPU)
			prefix := truncateRows(&q, fres.Ordered)
			got := plan.Run(EngineCPU).Ordered
			if len(got) != len(prefix) {
				t.Fatalf("%s: top-%d returned %d rows, full sort prefix has %d", q.ID, q.Limit, len(got), len(prefix))
			}
			for j := range got {
				if got[j].Key != prefix[j].Key {
					t.Errorf("%s: top-%d row %d is key %d, full sort has %d", q.ID, q.Limit, j, got[j].Key, prefix[j].Key)
				}
			}
		}
	}
	// The extended generator must actually exercise the new surface.
	if ordered < numQueries/4 || limited < numQueries/10 || multi < numQueries/4 {
		t.Errorf("generator too narrow: %d ordered, %d limited, %d multi-aggregate of %d",
			ordered, limited, multi, numQueries)
	}
}

// TestRandomQueryDeterministic: the same seed must reproduce the same
// query, so a differential failure is replayable from its seed alone.
func TestRandomQueryDeterministic(t *testing.T) {
	a := RandomQuery(rand.New(rand.NewSource(42)), diffDS, 0, GenOptions{})
	b := RandomQuery(rand.New(rand.NewSource(42)), diffDS, 0, GenOptions{})
	if a.Canonical() != b.Canonical() {
		t.Fatalf("same seed, different queries:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	c := RandomQuery(rand.New(rand.NewSource(43)), diffDS, 0, GenOptions{})
	if a.Canonical() == c.Canonical() {
		t.Error("different seeds produced identical queries")
	}
}
