package serve

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"testing"

	"crystal/internal/device"
	"crystal/internal/queries"
	"crystal/internal/ssb"
)

// residencyDS is shared by the residency tests; packing it repeatedly per
// service is the point (each service builds its own encoding lazily).
var residencyDS = ssb.GenerateRows(100_000)

// TestPackedRequestsRowIdentical: a packed request returns exactly the rows
// of the plain request on every engine, and is marked packed.
func TestPackedRequestsRowIdentical(t *testing.T) {
	s := New(residencyDS, "v1", Options{Workers: 2})
	defer s.Close()
	for _, e := range queries.Engines() {
		plain, err := s.Do(context.Background(), Request{QueryID: "q2.1", Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := s.Do(context.Background(), Request{QueryID: "q2.1", Engine: e, Packed: true})
		if err != nil {
			t.Fatal(err)
		}
		if !packed.Result.Equal(plain.Result) {
			t.Errorf("%s: packed rows differ from plain", e)
		}
		if !packed.Result.Packed || plain.Result.Packed {
			t.Errorf("%s: packed marker wrong: packed=%v plain=%v", e, packed.Result.Packed, plain.Result.Packed)
		}
	}
}

// TestPackedResultCacheSeparation: packed and plain responses for the same
// query/engine must come from distinct result-cache entries — their
// simulated seconds differ, and replaying one for the other would corrupt
// served latencies.
func TestPackedResultCacheSeparation(t *testing.T) {
	s := New(residencyDS, "v1", Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	plain, _ := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU})
	packed, _ := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, Packed: true})
	if plain.SimSeconds == packed.SimSeconds {
		t.Fatal("packed and plain CPU runs report identical seconds; the asymmetry is lost")
	}
	again, _ := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, Packed: true})
	if !again.ResultCached {
		t.Error("repeated packed request missed the result cache")
	}
	if again.SimSeconds != packed.SimSeconds {
		t.Error("cached packed seconds drifted")
	}
}

// residencyCases are the capacities the residency tests serve at: nothing
// resident (a negative DeviceCacheBytes), room for the first column of the
// policy's walk only — a strict subset — and the default, the V100's.
func residencyCases(pf *ssb.PackedFact) []struct {
	name     string
	capacity int64
} {
	walk, _ := queries.ResidentColumns(pf, pf.Bytes())
	return []struct {
		name     string
		capacity int64
	}{
		{"nothing resident", -1},
		{"a strict subset", pf.Col(walk[0]).Bytes()},
		{"the V100's capacity", 0},
	}
}

// TestResidencyWarmCoprocessor is the serving-side acceptance check: at
// every capacity, after a dataset swap the first and the tenth identical
// packed coprocessor request price bit-equal and the tenth is a
// result-cache hit; a transfer-bound packed request is strictly faster than
// plain, and faster still the more of its columns are resident; and /stats
// reports the snapshot's resident set once its encoding exists.
func TestResidencyWarmCoprocessor(t *testing.T) {
	ctx := context.Background()
	q, _ := queries.ByID("q1.1")
	refs := q.ReferencedFactColumns()
	pf := residencyDS.Pack()
	req := Request{QueryID: "q1.1", Engine: queries.EngineCoproc, Packed: true}
	var prev float64
	for i, c := range residencyCases(pf) {
		s := New(residencyDS, "v1", Options{Workers: 1, DeviceCacheBytes: c.capacity})
		plain, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCoproc})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
		s.SetDataset("v2", residencyDS)
		if st := s.Stats(); st.DeviceCacheCols != 0 || st.DeviceCacheUsedBytes != 0 {
			t.Errorf("%s: stats report a resident set before the new snapshot packed", c.name)
		}
		var first, tenth Response
		for n := 1; n <= 10; n++ {
			resp, err := s.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if n == 1 {
				first = resp
			}
			tenth = resp
		}
		s.Close()

		capacity := max(c.capacity, 0)
		if c.capacity == 0 {
			capacity = device.V100().MemoryBytes
		}
		cols, used := queries.ResidentColumns(pf, capacity)
		resident := 0
		for _, col := range refs {
			if slices.Contains(cols, col) {
				resident++
			}
		}
		if first.ResultCached || !tenth.ResultCached {
			t.Errorf("%s: first cached=%v, tenth cached=%v; want a miss, then a hit", c.name, first.ResultCached, tenth.ResultCached)
		}
		if first.SimSeconds != tenth.SimSeconds || first.TransferBytes != tenth.TransferBytes {
			t.Errorf("%s: first %.12fs / %d bytes, tenth %.12fs / %d bytes", c.name,
				first.SimSeconds, first.TransferBytes, tenth.SimSeconds, tenth.TransferBytes)
		}
		if first.ResidentCols != resident || (resident == len(refs)) != (first.TransferBytes == 0) {
			t.Errorf("%s: %d resident cols, %d bytes shipped; want %d of %d resident",
				c.name, first.ResidentCols, first.TransferBytes, resident, len(refs))
		}
		if first.SimSeconds >= plain.SimSeconds {
			t.Errorf("%s: packed coprocessor not faster than plain: %.9f >= %.9f", c.name, first.SimSeconds, plain.SimSeconds)
		}
		if i > 0 && first.SimSeconds >= prev {
			t.Errorf("%s: %.12fs, not faster than the smaller capacity's %.12fs", c.name, first.SimSeconds, prev)
		}
		prev = first.SimSeconds
		if !first.Result.Equal(plain.Result) {
			t.Errorf("%s: residency changed the rows", c.name)
		}

		// Two executed packed requests, one per snapshot; the hits replay.
		st := s.Stats()
		want := Stats{DeviceCacheCapBytes: capacity, DeviceCacheUsedBytes: used, DeviceCacheCols: len(cols),
			ResidentHits: 2 * int64(resident), ResidentMisses: 2 * int64(len(refs)-resident)}
		if c.capacity < 0 {
			want = Stats{}
		}
		if st.DeviceCacheCapBytes != want.DeviceCacheCapBytes || st.DeviceCacheUsedBytes != want.DeviceCacheUsedBytes ||
			st.DeviceCacheCols != want.DeviceCacheCols || st.ResidentHits != want.ResidentHits ||
			st.ResidentMisses != want.ResidentMisses {
			t.Errorf("%s: stats cap %d used %d cols %d hits %d misses %d; want %d %d %d %d %d", c.name,
				st.DeviceCacheCapBytes, st.DeviceCacheUsedBytes, st.DeviceCacheCols, st.ResidentHits, st.ResidentMisses,
				want.DeviceCacheCapBytes, want.DeviceCacheUsedBytes, want.DeviceCacheCols, want.ResidentHits, want.ResidentMisses)
		}
	}
}

// residentRefs counts the fact columns q reads that the residency policy
// keeps resident for the encoding pf at capacity.
func residentRefs(pf *ssb.PackedFact, capacity int64, q queries.Query) int {
	cols, _ := queries.ResidentColumns(pf, capacity)
	n := 0
	for _, c := range q.ReferencedFactColumns() {
		if slices.Contains(cols, c) {
			n++
		}
	}
	return n
}

// packedCoproc is a packed coprocessor request for q1.1 answered by a fresh
// service on ds: the pricing a request gets with no history behind it.
func packedCoproc(t *testing.T, ds *ssb.Dataset, capacity int64) Response {
	t.Helper()
	s := New(ds, "fresh", Options{Workers: 1, DeviceCacheBytes: capacity})
	defer s.Close()
	resp, err := s.Do(context.Background(), Request{QueryID: "q1.1", Engine: queries.EngineCoproc, Packed: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// samePricing reports whether two responses shipped, kept resident and
// priced alike.
func samePricing(a, b Response) bool {
	return a.SimSeconds == b.SimSeconds && a.TransferBytes == b.TransferBytes && a.ResidentCols == b.ResidentCols
}

// TestResidencyEviction: a device smaller than the working set keeps a
// strict subset resident and never holds more than its capacity, however
// many queries run; a column larger than the whole capacity is never
// resident.
func TestResidencyEviction(t *testing.T) {
	ctx := context.Background()
	pf := residencyDS.Pack()
	size := func(c string) int64 { return pf.Col(c).Bytes() }
	walk, _ := queries.ResidentColumns(pf, pf.Bytes())
	smallest := slices.MinFunc(walk, func(a, b string) int { return cmp.Compare(size(a), size(b)) })
	for _, capacity := range []int64{size(walk[0]), size(smallest) - 1} {
		cols, used := queries.ResidentColumns(pf, capacity)
		if len(cols) >= len(walk) {
			t.Fatalf("capacity %d keeps all %d columns; the working set must not fit", capacity, len(walk))
		}
		s := New(residencyDS, "v1", Options{Workers: 1, DeviceCacheBytes: capacity})
		for _, q := range queries.All() {
			resp, err := s.Do(ctx, Request{QueryID: q.ID, Engine: queries.EngineCoproc, Packed: true, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if want := residentRefs(pf, capacity, q); resp.ResidentCols != want {
				t.Errorf("capacity %d, %s: %d resident cols, want %d", capacity, q.ID, resp.ResidentCols, want)
			}
			st := s.Stats()
			if st.DeviceCacheUsedBytes > capacity || st.DeviceCacheUsedBytes != used || st.DeviceCacheCols != len(cols) {
				t.Errorf("capacity %d, after %s: %d cols, %d bytes resident; want %d cols, %d bytes",
					capacity, q.ID, st.DeviceCacheCols, st.DeviceCacheUsedBytes, len(cols), used)
			}
		}
		s.Close()
		if capacity < size(smallest) && cols != nil {
			t.Errorf("capacity %d below every column kept %v", capacity, cols)
		}
	}
}

// TestResidencyLRUOrder: request order decides nothing. Two services at a
// capacity that holds a strict subset, one running the catalog forward and
// one running it backward after touching q4.3 again and again, price every
// query alike and report the same resident set.
func TestResidencyLRUOrder(t *testing.T) {
	ctx := context.Background()
	pf := residencyDS.Pack()
	walk, _ := queries.ResidentColumns(pf, pf.Bytes())
	capacity := pf.Col(walk[0]).Bytes()
	all := queries.All()
	backward := slices.Clone(all)
	slices.Reverse(backward)
	last := all[len(all)-1]
	backward = append([]queries.Query{last, last, last}, backward...)

	run := func(order []queries.Query) (map[string]Response, Stats) {
		s := New(residencyDS, "v1", Options{Workers: 1, DeviceCacheBytes: capacity})
		defer s.Close()
		out := map[string]Response{}
		for _, q := range order {
			resp, err := s.Do(ctx, Request{QueryID: q.ID, Engine: queries.EngineCoproc, Packed: true, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := out[q.ID]; ok && !samePricing(prev, resp) {
				t.Errorf("%s: a repeat priced %.12fs / %d bytes, the first %.12fs / %d bytes",
					q.ID, resp.SimSeconds, resp.TransferBytes, prev.SimSeconds, prev.TransferBytes)
			}
			out[q.ID] = resp
		}
		return out, s.Stats()
	}
	fwd, fst := run(all)
	bwd, bst := run(backward)
	for _, q := range all {
		if f, b := fwd[q.ID], bwd[q.ID]; !samePricing(f, b) {
			t.Errorf("%s: forward %.12fs / %d bytes / %d resident, backward %.12fs / %d bytes / %d resident", q.ID,
				f.SimSeconds, f.TransferBytes, f.ResidentCols, b.SimSeconds, b.TransferBytes, b.ResidentCols)
		}
	}
	if fst.DeviceCacheCols != bst.DeviceCacheCols || fst.DeviceCacheUsedBytes != bst.DeviceCacheUsedBytes {
		t.Errorf("forward keeps %d cols / %d bytes, backward %d cols / %d bytes",
			fst.DeviceCacheCols, fst.DeviceCacheUsedBytes, bst.DeviceCacheCols, bst.DeviceCacheUsedBytes)
	}
}

// TestResidencyStaleGenerationNotAdmitted: requests racing a dataset swap
// are each priced by the resident set of the snapshot they ran against,
// never by the other's, and once the swap is done /stats reports the new
// snapshot's set alone — nothing of the old one stays counted.
func TestResidencyStaleGenerationNotAdmitted(t *testing.T) {
	ctx := context.Background()
	pf1 := residencyDS.Pack()
	walk, _ := queries.ResidentColumns(pf1, pf1.Bytes())
	capacity := pf1.Col(walk[0]).Bytes()
	ds2 := ssb.GenerateRows(30_000)
	pf2 := ds2.Pack()
	want := map[string]Response{"v1": packedCoproc(t, residencyDS, capacity), "v2": packedCoproc(t, ds2, capacity)}
	if want["v1"].ResidentCols == want["v2"].ResidentCols {
		t.Fatalf("both datasets keep %d of q1.1's columns resident; the race cannot tell them apart", want["v1"].ResidentCols)
	}

	s := New(residencyDS, "v1", Options{Workers: 2, DeviceCacheBytes: capacity})
	defer s.Close()
	req := Request{QueryID: "q1.1", Engine: queries.EngineCoproc, Packed: true, NoCache: true}
	started := make(chan struct{}, 2)
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			var seen int
			for n := 0; n < 500 && seen < 3; n++ {
				resp, err := s.Do(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				if n == 0 {
					started <- struct{}{}
				}
				if w, ok := want[resp.Version]; !ok || !samePricing(resp, w) {
					errs <- fmt.Errorf("%s: %.12fs / %d bytes / %d resident; want %.12fs / %d bytes / %d resident",
						resp.Version, resp.SimSeconds, resp.TransferBytes, resp.ResidentCols,
						w.SimSeconds, w.TransferBytes, w.ResidentCols)
					return
				}
				if resp.Version == "v2" {
					seen++
				}
			}
			if seen < 3 {
				errs <- fmt.Errorf("%d requests after the swap in 500", seen)
				return
			}
			errs <- nil
		}()
	}
	<-started
	s.SetDataset("v2", ds2)
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	cols, used := queries.ResidentColumns(pf2, capacity)
	if st := s.Stats(); st.DeviceCacheCols != len(cols) || st.DeviceCacheUsedBytes != used {
		t.Errorf("after the swap stats report %d cols / %d bytes; the new snapshot keeps %d / %d",
			st.DeviceCacheCols, st.DeviceCacheUsedBytes, len(cols), used)
	}
}

// TestResidencyInvalidatedBySwap: SetDataset carries no residency over.
// The first packed coprocessor request against the new dataset misses the
// result cache and is priced exactly as a fresh service on that dataset
// prices it, by the new encoding's own resident set.
func TestResidencyInvalidatedBySwap(t *testing.T) {
	ctx := context.Background()
	pf1 := residencyDS.Pack()
	walk, _ := queries.ResidentColumns(pf1, pf1.Bytes())
	capacity := pf1.Col(walk[0]).Bytes()
	ds2 := ssb.GenerateRows(30_000)
	q, _ := queries.ByID("q1.1")
	fresh := packedCoproc(t, ds2, capacity)
	if fresh.ResidentCols != residentRefs(ds2.Pack(), capacity, q) {
		t.Fatalf("a fresh service keeps %d of q1.1's columns resident, the policy %d",
			fresh.ResidentCols, residentRefs(ds2.Pack(), capacity, q))
	}

	s := New(residencyDS, "v1", Options{Workers: 1, DeviceCacheBytes: capacity})
	defer s.Close()
	req := Request{QueryID: "q1.1", Engine: queries.EngineCoproc, Packed: true}
	var before Response
	for range 3 {
		resp, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		before = resp
	}
	s.SetDataset("v2", ds2)
	after, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.ResultCached || after.Version != "v2" {
		t.Errorf("first request after the swap: cached=%v, version %s", after.ResultCached, after.Version)
	}
	if !samePricing(after, fresh) {
		t.Errorf("after the swap %.12fs / %d bytes / %d resident; a fresh service %.12fs / %d bytes / %d resident",
			after.SimSeconds, after.TransferBytes, after.ResidentCols, fresh.SimSeconds, fresh.TransferBytes, fresh.ResidentCols)
	}
	if after.ResidentCols == before.ResidentCols {
		t.Errorf("both datasets keep %d of q1.1's columns resident; the swap cannot show", after.ResidentCols)
	}
}

// TestResidencyDisabled: a negative DeviceCacheBytes turns residency off —
// every packed coprocessor run pays its full transfer, and the stats stay
// zero.
func TestResidencyDisabled(t *testing.T) {
	s := New(residencyDS, "v1", Options{Workers: 1, DeviceCacheBytes: -1})
	defer s.Close()
	ctx := context.Background()
	req := Request{QueryID: "q1.1", Engine: queries.EngineCoproc, Packed: true, NoCache: true}
	a, _ := s.Do(ctx, req)
	b, _ := s.Do(ctx, req)
	if a.ResidentCols != 0 || b.ResidentCols != 0 {
		t.Error("disabled cache still reported resident columns")
	}
	if a.SimSeconds != b.SimSeconds {
		t.Error("disabled cache: repeated runs should cost the same")
	}
	if st := s.Stats(); st.ResidentHits != 0 || st.ResidentMisses != 0 || st.DeviceCacheCapBytes != 0 {
		t.Error("disabled cache leaked stats")
	}
}
