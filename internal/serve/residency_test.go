package serve

import (
	"context"
	"testing"

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

// TestResidencyWarmCoprocessor is the serving-side acceptance check: a
// transfer-bound packed coprocessor request is strictly faster than plain,
// and a warm residency-cache hit is strictly faster still — with the
// savings visible in /stats.
func TestResidencyWarmCoprocessor(t *testing.T) {
	s := New(residencyDS, "v1", Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	// NoCache keeps every run executing: residency-dependent coprocessor
	// responses bypass the result cache anyway, but the plain baseline
	// should also be a real execution.
	plain, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCoproc, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCoproc, Packed: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCoproc, Packed: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.SimSeconds >= plain.SimSeconds {
		t.Errorf("packed coprocessor not faster than plain: %.9f >= %.9f", cold.SimSeconds, plain.SimSeconds)
	}
	if warm.SimSeconds >= cold.SimSeconds {
		t.Errorf("warm residency hit not faster than cold: %.9f >= %.9f", warm.SimSeconds, cold.SimSeconds)
	}
	if warm.ResidentCols == 0 || warm.TransferBytes != 0 {
		t.Errorf("warm run: %d resident cols, %d transfer bytes; want all resident, none shipped",
			warm.ResidentCols, warm.TransferBytes)
	}
	if !warm.Result.Equal(plain.Result) {
		t.Error("residency caching changed the rows")
	}
	if warm.ResultCached || cold.ResultCached {
		t.Error("residency-dependent responses must not be served from the result cache")
	}

	st := s.Stats()
	if st.ResidentHits == 0 {
		t.Error("stats report no residency hits after a warm run")
	}
	if st.ResidentMisses == 0 {
		t.Error("stats report no residency misses after a cold run")
	}
	if st.DeviceCacheCols == 0 || st.DeviceCacheUsedBytes == 0 {
		t.Error("stats report an empty device cache after packed coprocessor runs")
	}
	if st.PackedRequests < 2 {
		t.Errorf("stats counted %d packed requests, want >= 2", st.PackedRequests)
	}
}

// TestResidencyEviction: a device cache smaller than the working set must
// evict instead of growing, and a column larger than the whole capacity is
// never admitted.
func TestResidencyEviction(t *testing.T) {
	dc := newDeviceCache(1000, 0)
	if hit, admitted := dc.acquire(0, "a", 600); hit || !admitted {
		t.Fatalf("cold acquire: hit=%v admitted=%v, want miss+admit", hit, admitted)
	}
	if hit, _ := dc.acquire(0, "a", 600); !hit {
		t.Fatal("second acquire of a missed")
	}
	dc.acquire(0, "b", 600) // must evict a
	snap := dc.snapshot()
	if snap.evictions != 1 || snap.used != 600 || snap.cols != 1 {
		t.Errorf("after eviction: %+v", snap)
	}
	if hit, _ := dc.acquire(0, "a", 600); hit {
		t.Error("evicted column still reported resident")
	}
	if hit, admitted := dc.acquire(0, "huge", 5000); hit || admitted {
		t.Error("over-capacity column should be refused outright")
	}
	if got := dc.snapshot(); got.used > 1000 {
		t.Errorf("cache overfilled: %d bytes", got.used)
	}
}

// TestResidencyLRUOrder: touching a column refreshes its recency, so the
// least recently used one is evicted first.
func TestResidencyLRUOrder(t *testing.T) {
	dc := newDeviceCache(1000, 0)
	dc.acquire(0, "a", 400)
	dc.acquire(0, "b", 400)
	dc.acquire(0, "a", 400) // refresh a
	dc.acquire(0, "c", 400) // evicts b, not a
	if hit, _ := dc.acquire(0, "a", 400); !hit {
		t.Error("recently used column was evicted")
	}
	if hit, _ := dc.acquire(0, "b", 400); hit {
		t.Error("least recently used column was not evicted")
	}
}

// TestResidencyStaleGenerationNotAdmitted: a request that snapshotted an
// old generation while a dataset swap raced past it may miss, but must not
// pin its dead column against the capacity of the purged cache — and a
// purge for an older generation that lost the race must not regress the
// cache's generation.
func TestResidencyStaleGenerationNotAdmitted(t *testing.T) {
	dc := newDeviceCache(1000, 1)
	dc.acquire(1, "a", 400)
	dc.purge(2) // SetDataset: purge and advance
	if hit, admitted := dc.acquire(1, "a", 400); hit || admitted {
		t.Error("stale-generation acquire should be refused after purge")
	}
	if snap := dc.snapshot(); snap.cols != 0 || snap.used != 0 {
		t.Errorf("stale generation pinned dead bytes: %+v", snap)
	}
	if hit, admitted := dc.acquire(2, "a", 400); hit || !admitted {
		t.Error("current generation should miss cold and be admitted")
	}
	if snap := dc.snapshot(); snap.cols != 1 || snap.used != 400 {
		t.Errorf("current generation not admitted: %+v", snap)
	}
	// A racing purge for an older generation is a no-op: the generation is
	// monotone and current entries survive.
	dc.purge(1)
	if hit, _ := dc.acquire(2, "a", 400); !hit {
		t.Error("stale purge wiped current-generation residency")
	}
}

// TestResidencyInvalidatedBySwap: SetDataset frees the device cache and the
// packed encoding, so the first packed coprocessor request against the new
// dataset pays a cold transfer again.
func TestResidencyInvalidatedBySwap(t *testing.T) {
	s := New(residencyDS, "v1", Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	req := Request{QueryID: "q1.1", Engine: queries.EngineCoproc, Packed: true, NoCache: true}
	cold, _ := s.Do(ctx, req)
	warm, _ := s.Do(ctx, req)
	if warm.ResidentCols == 0 {
		t.Fatal("second run should be warm")
	}
	s.SetDataset("v2", ssb.GenerateRows(100_000))
	after, _ := s.Do(ctx, req)
	if after.ResidentCols != 0 {
		t.Error("dataset swap did not invalidate device residency")
	}
	if after.TransferBytes == 0 {
		t.Error("post-swap run shipped nothing")
	}
	_ = cold
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
