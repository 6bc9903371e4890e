package queries

import (
	"testing"

	"crystal/internal/ssb"
)

var testDS = ssb.GenerateRows(200_000)

func TestAllThirteenQueriesDefined(t *testing.T) {
	qs := All()
	if len(qs) != 13 {
		t.Fatalf("got %d queries, want 13", len(qs))
	}
	want := []string{"q1.1", "q1.2", "q1.3", "q2.1", "q2.2", "q2.3", "q3.1", "q3.2", "q3.3", "q3.4", "q4.1", "q4.2", "q4.3"}
	for i, q := range qs {
		if q.ID != want[i] {
			t.Errorf("query %d = %s, want %s", i, q.ID, want[i])
		}
	}
	if _, err := ByID("q2.1"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("q9.9"); err == nil {
		t.Error("unknown query id accepted")
	}
}

func TestFilterMatch(t *testing.T) {
	r := Filter{Lo: 5, Hi: 10}
	if !r.Match(5) || !r.Match(10) || r.Match(4) || r.Match(11) {
		t.Error("range filter wrong")
	}
	s := Filter{In: []int32{3, 7}}
	if !s.Match(3) || !s.Match(7) || s.Match(5) {
		t.Error("set filter wrong")
	}
}

func TestGroupPacking(t *testing.T) {
	vals := []int32{1997, 423, 88}
	key := PackGroup(vals)
	got := UnpackGroup(key, 3)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("unpack = %v, want %v", got, vals)
		}
	}
	if PackGroup(nil) != 0 {
		t.Error("empty group should pack to 0")
	}
}

func TestAggKinds(t *testing.T) {
	if got := AggSumRevenue.Eval([]int32{42}); got != 42 {
		t.Errorf("revenue agg = %d", got)
	}
	if got := AggSumExtDisc.Eval([]int32{100, 3}); got != 300 {
		t.Errorf("extdisc agg = %d", got)
	}
	if got := AggSumProfit.Eval([]int32{100, 60}); got != 40 {
		t.Errorf("profit agg = %d", got)
	}
	if len(AggSumRevenue.Columns()) != 1 || len(AggSumExtDisc.Columns()) != 2 {
		t.Error("agg columns wrong")
	}
}

func TestReferenceProducesGroups(t *testing.T) {
	q, _ := ByID("q2.1")
	res := Reference(testDS, q)
	if len(res.Groups) == 0 {
		t.Fatal("q2.1 reference returned no groups")
	}
	// Group payloads pack in join order: (p_brand1, d_year).
	for k := range res.Groups {
		vals := UnpackGroup(k, 2)
		if vals[0]/ssb.BrandsPerCat != ssb.CategoryCode("MFGR#12") {
			t.Fatalf("group brand %d outside category", vals[0])
		}
		if vals[1] < 1992 || vals[1] > 1998 {
			t.Fatalf("group year %d out of range", vals[1])
		}
	}
}

// TestEnginesMatchReference is the cross-engine validation invariant of
// DESIGN.md: every engine must return identical rows for all 13 queries.
func TestEnginesMatchReference(t *testing.T) {
	for _, q := range All() {
		want := Reference(testDS, q)
		for _, e := range Engines() {
			res := Compile(testDS, q).Run(e)
			if res.QueryID != q.ID {
				t.Errorf("%s/%s: wrong query id %s", e, q.ID, res.QueryID)
			}
			if !res.Equal(normalizeRef(q, want)) {
				t.Errorf("%s disagrees with reference on %s: %d vs %d groups",
					e, q.ID, len(res.Groups), len(want.Groups))
			}
			if res.Seconds <= 0 {
				t.Errorf("%s/%s: no simulated time", e, q.ID)
			}
		}
	}
}

func normalizeRef(q Query, r *Result) *Result {
	if len(q.GroupPayloads()) == 0 && len(r.Groups) == 0 {
		n := &Result{QueryID: r.QueryID, Groups: map[int64]int64{0: 0}}
		return n
	}
	return r
}

func TestResultRowsSortedAndEqual(t *testing.T) {
	r := &Result{Groups: map[int64]int64{5: 50, 1: 10, 3: 30}}
	rows := r.Rows()
	if len(rows) != 3 || rows[0][0] != 1 || rows[2][0] != 5 {
		t.Errorf("rows not sorted: %v", rows)
	}
	o := &Result{Groups: map[int64]int64{5: 50, 1: 10, 3: 30}}
	if !r.Equal(o) {
		t.Error("equal results reported unequal")
	}
	o.Groups[5] = 51
	if r.Equal(o) {
		t.Error("unequal results reported equal")
	}
	if r.Equal(&Result{Groups: map[int64]int64{1: 10}}) {
		t.Error("different sizes reported equal")
	}
	r.Seconds = 0.5
	if r.Milliseconds() != 500 {
		t.Error("ms conversion")
	}
}

func TestGPUFasterThanCPUOnEveryQuery(t *testing.T) {
	for _, q := range All() {
		gpu := Compile(testDS, q).Run(EngineGPU)
		cpu := Compile(testDS, q).Run(EngineCPU)
		if gpu.Seconds >= cpu.Seconds {
			t.Errorf("%s: GPU (%.6f) not faster than CPU (%.6f)", q.ID, gpu.Seconds, cpu.Seconds)
		}
	}
}

func TestEngineRelativeOrder(t *testing.T) {
	// Architecture sanity on a multi-join query: standalone CPU beats the
	// Hyper and MonetDB stand-ins; the tiled GPU beats the Omnisci
	// stand-in; and the coprocessor is slower than the standalone GPU.
	//
	// MonetDB's handicap (materialized gathers) only bites once the fact
	// columns outgrow the L3 cache, so this test needs a full SF-1 fact
	// table (24 MB per column), not the small shared dataset.
	if testing.Short() {
		t.Skip("needs SF-1 dataset")
	}
	big := ssb.Generate(1)
	q, _ := ByID("q2.1")
	times := map[Engine]float64{}
	for _, e := range Engines() {
		times[e] = Compile(big, q).Run(e).Seconds
	}
	if times[EngineCPU] >= times[EngineHyper] {
		t.Errorf("CPU (%.6f) should beat Hyper stand-in (%.6f)", times[EngineCPU], times[EngineHyper])
	}
	if times[EngineCPU] >= times[EngineMonet] {
		t.Errorf("CPU (%.6f) should beat MonetDB stand-in (%.6f)", times[EngineCPU], times[EngineMonet])
	}
	if times[EngineGPU] >= times[EngineOmnisci] {
		t.Errorf("GPU (%.6f) should beat Omnisci stand-in (%.6f)", times[EngineGPU], times[EngineOmnisci])
	}
	if times[EngineGPU] >= times[EngineCoproc] {
		t.Errorf("standalone GPU (%.6f) should beat coprocessor (%.6f)", times[EngineGPU], times[EngineCoproc])
	}
}

func TestCoprocessorBoundByPCIe(t *testing.T) {
	// Section 3.1: the coprocessor runtime is lower bounded by shipping the
	// referenced columns over PCIe.
	q, _ := ByID("q1.1")
	res := Compile(testDS, q).Run(EngineCoproc)
	// q1.1 references 4 fact columns.
	minTransfer := float64(4*4*testDS.Lineorder.Rows()) / 12.8e9
	if res.Seconds < minTransfer {
		t.Errorf("coprocessor %.6fs below PCIe floor %.6fs", res.Seconds, minTransfer)
	}
}

func TestPipelineStatsSanity(t *testing.T) {
	q, _ := ByID("q2.1")
	builds := buildTables(testDS, q)
	if len(builds) != 3 {
		t.Fatalf("builds = %d", len(builds))
	}
	// Supplier join is filter-only (key-only table); part carries brand.
	if builds[0].ht.Bytes() != int64(builds[0].ht.Capacity())*4 {
		t.Error("supplier table should be key-only")
	}
	if builds[1].spec.Payload != "brand1" {
		t.Error("part payload wrong")
	}
	// Roughly 1/5 of suppliers are AMERICA.
	frac := float64(builds[0].inserted) / float64(builds[0].dimRows)
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("supplier filter selectivity = %.3f", frac)
	}
	// Part category filter: 1/25.
	frac = float64(builds[1].inserted) / float64(builds[1].dimRows)
	if frac < 0.02 || frac > 0.06 {
		t.Errorf("part filter selectivity = %.3f", frac)
	}

	plan := Compile(testDS, q)
	_, st := plan.scan(plan.morselRun(RunOptions{}))
	if st.rows != int64(testDS.Lineorder.Rows()) {
		t.Error("stats rows wrong")
	}
	// Every fact row probes the first join.
	if st.probes[0] != st.rows {
		t.Errorf("first join probes = %d, want %d", st.probes[0], st.rows)
	}
	// Survivors shrink monotonically.
	prev := st.rows
	for i, a := range st.alive {
		if a > prev {
			t.Fatalf("stage %d grew: %d > %d", i, a, prev)
		}
		prev = a
	}
	if st.out != st.alive[len(st.alive)-1] {
		t.Error("out != final alive")
	}
	// Line counts: first column read in full.
	first := q.Joins[0].FactFK
	wantLines := (st.rows + 15) / 16
	if st.lines64[first] < wantLines-8 {
		t.Errorf("first column lines = %d, want ~%d", st.lines64[first], wantLines)
	}
	// Later columns touch fewer or equal lines.
	if st.lines64["revenue"] > st.lines64[first] {
		t.Error("selective column touched more lines than full scan")
	}
}

func TestQ1FlightSelectivities(t *testing.T) {
	// SSB q1.1 keeps roughly 1/7 * 3/11 * 0.48 ~ 1.9% of the fact table.
	q, _ := ByID("q1.1")
	plan := Compile(testDS, q)
	_, st := plan.scan(plan.morselRun(RunOptions{}))
	sel := float64(st.out) / float64(st.rows)
	if sel < 0.012 || sel > 0.028 {
		t.Errorf("q1.1 selectivity = %.4f, want ~0.019", sel)
	}
}

func TestRunPanicsOnUnknownEngine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown engine should panic")
		}
	}()
	q, _ := ByID("q1.1")
	Compile(testDS, q).Run(Engine("nope"))
}

func TestFactColAndDimTablePanics(t *testing.T) {
	for _, name := range []string{"orderdate", "custkey", "partkey", "suppkey", "quantity", "discount", "extprice", "revenue", "supplycost"} {
		if FactCol(&testDS.Lineorder, name) == nil {
			t.Errorf("FactCol(%s) nil", name)
		}
	}
	func() {
		defer func() { recover() }()
		FactCol(&testDS.Lineorder, "bogus")
		t.Error("FactCol should panic on unknown column")
	}()
	func() {
		defer func() { recover() }()
		DimTable(testDS, "bogus")
		t.Error("DimTable should panic on unknown dim")
	}()
}
