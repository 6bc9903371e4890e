package queries

import (
	"fmt"
	"math/rand"
	"testing"

	"crystal/internal/queries/queriestest"
	"crystal/internal/ssb"
)

// partitionCounts is the invariance matrix from the issue: counts that
// divide the fact table evenly and counts that do not.
var partitionCounts = []int{1, 2, 7, 16, 64}

// TestPartitionInvarianceCatalog is the core guarantee of partitioned
// execution: for every catalog query, every engine, and every partition
// count, the partitioned run returns rows AND simulated seconds identical
// to the monolithic run. On the uniformly generated dataset every morsel's
// zone spans the filters' ranges, so nothing prunes and the tile-aligned
// statistics merge makes the cost math exact — not approximately equal,
// float-for-float equal.
func TestPartitionInvarianceCatalog(t *testing.T) {
	for _, q := range All() {
		plan := Compile(testDS, q)
		for _, e := range Engines() {
			base := plan.Run(e)
			for _, n := range partitionCounts {
				res := runEngine(plan, e, RunOptions{Partition: PartitionOptions{Partitions: n}})
				queriestest.SameRun(t, fmt.Sprintf("%s/%s at %d partitions", e, q.ID, n), res, base)
				if res.Pruned != 0 {
					t.Errorf("%s/%s: pruned %d morsels on uniform data", e, q.ID, res.Pruned)
				}
				if res.Morsels != n {
					t.Errorf("%s/%s: ran %d morsels, want %d", e, q.ID, res.Morsels, n)
				}
			}
		}
	}
}

// TestPartitionInvarianceGenerated extends the invariance property to a
// sample of generated queries. Wide filters guarantee no pruning on the
// uniform dataset (asserted), so seconds must match exactly too.
func TestPartitionInvarianceGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		q := RandomQuery(r, diffDS, i, GenOptions{WideFilters: true})
		if err := q.Validate(); err != nil {
			t.Fatalf("generated query invalid: %v", err)
		}
		plan := Compile(diffDS, q)
		for _, e := range []Engine{EngineCPU, EngineGPU, EngineMonet} {
			base := plan.Run(e)
			for _, n := range partitionCounts {
				res := runEngine(plan, e, RunOptions{Partition: PartitionOptions{Partitions: n}})
				if res.Pruned != 0 {
					t.Fatalf("%s/%s: wide filters should never prune, got %d", e, q.ID, res.Pruned)
				}
				queriestest.SameRun(t, fmt.Sprintf("%s/%s at %d partitions", e, q.ID, n), res, base)
			}
		}
	}
}

// TestZonePruningSkipsMorsels is the acceptance demonstration: on a layout
// clustered by orderdate, a q1.1-style selective date filter must actually
// skip morsels — with rows unchanged and simulated time strictly cheaper
// on every engine.
func TestZonePruningSkipsMorsels(t *testing.T) {
	clustered := testDS.ClusterBy("orderdate")
	q, _ := ByID("q1.1") // orderdate in 1993: one year of seven
	plan := Compile(clustered, q)
	for _, e := range Engines() {
		base := plan.Run(e)
		res := runEngine(plan, e, RunOptions{Partition: PartitionOptions{Partitions: 64}})
		if res.Pruned == 0 {
			t.Fatalf("%s: no morsels pruned on clustered layout", e)
		}
		queriestest.Cheaper(t, fmt.Sprintf("%s pruned run", e), res, base)
	}
	// The zone-mapped rows that do get scanned cost the same as in the
	// monolithic run, so pruning most of the table must save most of the
	// scan: the 1993 flight keeps ~1/7 of a clustered table.
	res := runEngine(plan, EngineGPU, RunOptions{Partition: PartitionOptions{Partitions: 64}})
	if frac := float64(res.Pruned) / float64(res.Morsels); frac < 0.5 {
		t.Errorf("expected most morsels pruned, got %d/%d", res.Pruned, res.Morsels)
	}
}

func TestMatchesZone(t *testing.T) {
	z := ssb.Zone{Min: 100, Max: 200}
	cases := []struct {
		f    Filter
		want bool
	}{
		{Filter{Col: "x", Lo: 150, Hi: 160}, true},
		{Filter{Col: "x", Lo: 0, Hi: 100}, true},
		{Filter{Col: "x", Lo: 200, Hi: 300}, true},
		{Filter{Col: "x", Lo: 0, Hi: 99}, false},
		{Filter{Col: "x", Lo: 201, Hi: 999}, false},
		{Filter{Col: "x", In: []int32{5, 150}}, true},
		{Filter{Col: "x", In: []int32{5, 99, 201}}, false},
	}
	for i, c := range cases {
		if got := c.f.MatchesZone(z); got != c.want {
			t.Errorf("case %d: MatchesZone = %v, want %v", i, got, c.want)
		}
	}
}

func TestPruneMorselsConservative(t *testing.T) {
	morsels := []ssb.Morsel{
		{Lo: 0, Hi: 10, Zones: map[string]ssb.Zone{"quantity": {Min: 1, Max: 10}}},
		{Lo: 10, Hi: 20, Zones: map[string]ssb.Zone{"quantity": {Min: 11, Max: 20}}},
		{Lo: 20, Hi: 30}, // no zone map: never pruned
	}
	pruned := PruneMorsels(morsels, []Filter{{Col: "quantity", Lo: 12, Hi: 15}})
	if !pruned[0] || pruned[1] || pruned[2] {
		t.Errorf("pruned = %v, want [true false false]", pruned)
	}
	// A filter on a column without a zone entry never prunes.
	pruned = PruneMorsels(morsels, []Filter{{Col: "discount", Lo: 0, Hi: 0}})
	for i, p := range pruned {
		if p {
			t.Errorf("morsel %d pruned by unzoned column", i)
		}
	}
	// No filters: nothing prunes.
	for _, p := range PruneMorsels(morsels, nil) {
		if p {
			t.Error("pruned with no filters")
		}
	}
}

// TestPartitionedMatchesRun checks a partitioned engine schedule against
// the monolithic Plan.Run shorthand and pins that plans share the dataset's
// morsel maps: one slice per effective partition count whichever plan asks,
// so oversize requests share the tile-count entry (the bound on the cache
// itself is pinned in ssb's TestPartitionFromTiles).
func TestPartitionedMatchesRun(t *testing.T) {
	q, _ := ByID("q2.1")
	a := runEngine(Compile(testDS, q), EngineCPU, RunOptions{Partition: PartitionOptions{Partitions: 7}})
	b := Compile(testDS, q).Run(EngineCPU)
	if !a.Equal(b) || a.Seconds != b.Seconds {
		t.Error("partitioned engine schedule disagrees with Plan.Run")
	}
	plan := Compile(testDS, q)
	m1 := plan.Morsels(7)
	m2 := plan.Morsels(7)
	if &m1[0] != &m2[0] {
		t.Error("morsels not memoized")
	}
	if len(plan.Morsels(0)) != 1 {
		t.Error("Morsels(0) should clamp to one morsel")
	}
	tiles := (testDS.Lineorder.Rows() + ssb.MorselAlign - 1) / ssb.MorselAlign
	big1, big2 := plan.Morsels(tiles+1), plan.Morsels(1<<30)
	if len(big1) != tiles || &big1[0] != &big2[0] {
		t.Errorf("oversize counts returned %d and %d morsels in distinct slices, want one shared %d-morsel entry",
			len(big1), len(big2), tiles)
	}
	q11, _ := ByID("q1.1")
	if other := Compile(testDS, q11).Morsels(7); &other[0] != &m1[0] {
		t.Error("two plans over one dataset do not share its morsels")
	}
}

// TestMorselAlignMatchesGPUTile pins the invariant the whole design hangs
// on: the GPU tile size must equal the morsel alignment quantum, or pruned
// morsels would no longer map onto whole thread blocks.
func TestMorselAlignMatchesGPUTile(t *testing.T) {
	if ts := gpuConfig(0).TileSize(); ts != ssb.MorselAlign {
		t.Fatalf("GPU tile size %d != ssb.MorselAlign %d", ts, ssb.MorselAlign)
	}
	if ssb.MorselAlign%32 != 0 {
		t.Fatal("MorselAlign must be a multiple of the 128 B line (32 rows)")
	}
}

// TestBtoi pins the branch-based conversion (the old map-per-call version
// allocated on every build).
func TestBtoi(t *testing.T) {
	if btoi(true) != 1 || btoi(false) != 0 {
		t.Errorf("btoi: got %d/%d, want 1/0", btoi(true), btoi(false))
	}
}

func BenchmarkBtoi(b *testing.B) {
	s := 0
	for i := 0; i < b.N; i++ {
		s += btoi(i&1 == 0)
	}
	_ = s
}

// TestEngineWrappersMatchDispatch exercises the Dataset accessor and
// Result.Clone isolation including the partitioning fields.
func TestEngineWrappersMatchDispatch(t *testing.T) {
	small := ssb.GenerateRows(4096)
	q, _ := ByID("q2.1")
	plan := Compile(small, q)
	if plan.Dataset() != small {
		t.Error("Dataset accessor lost the dataset")
	}
	res := runEngine(plan, EngineCPU, RunOptions{Partition: PartitionOptions{Partitions: 2}})
	cl := res.Clone()
	if cl.Morsels != res.Morsels || cl.Pruned != res.Pruned || cl.Seconds != res.Seconds {
		t.Error("Clone dropped execution metadata")
	}
	for k := range cl.Groups {
		cl.Groups[k]++
	}
	if res.Equal(cl) {
		t.Error("Clone shares group storage with the original")
	}
}
