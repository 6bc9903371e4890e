package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crystal/internal/queries"
	"crystal/internal/queries/queriestest"
	sqlfe "crystal/internal/sql"
	"crystal/internal/ssb"
)

var (
	dsOnce sync.Once
	testDS *ssb.Dataset
)

// testData is a small dataset shared across tests; serving-layer behavior
// does not depend on scale.
func testData() *ssb.Dataset {
	dsOnce.Do(func() { testDS = ssb.GenerateRows(1 << 12) })
	return testDS
}

// allRequests is every (query, engine) pair: 13 x 6 = 78 requests.
func allRequests() []Request {
	var reqs []Request
	for _, q := range queries.All() {
		for _, e := range queries.Engines() {
			reqs = append(reqs, Request{QueryID: q.ID, Engine: e})
		}
	}
	return reqs
}

// TestEquivalenceWithSequentialRun is the tentpole correctness gate: all 13
// queries on all 6 engines, dispatched concurrently across >= 4 workers,
// must return row-for-row (and simulated-second) identical results to
// sequential queries.Run.
func TestEquivalenceWithSequentialRun(t *testing.T) {
	ds := testData()
	workers := 4
	s := New(ds, "v1", Options{Workers: workers})
	defer s.Close()
	if s.Workers() < 4 {
		t.Fatalf("want >= 4 workers, got %d", s.Workers())
	}

	reqs := allRequests()
	resps, err := s.RunAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("request %+v failed: %v", reqs[i], resp.Err)
		}
		q, err := queries.ByID(reqs[i].QueryID)
		if err != nil {
			t.Fatal(err)
		}
		want := queries.Compile(ds, q).Run(reqs[i].Engine)
		queriestest.SameRun(t, fmt.Sprintf("%s on %s served", q.ID, reqs[i].Engine), resp.Result, want)
	}
	st := s.Stats()
	if st.Requests != int64(len(reqs)) {
		t.Errorf("stats recorded %d requests, want %d", st.Requests, len(reqs))
	}
	if st.Errors != 0 {
		t.Errorf("stats recorded %d errors, want 0", st.Errors)
	}
}

// TestConcurrentSubmission hammers the pool from many client goroutines at
// once (run under -race in CI): every response must match the reference.
func TestConcurrentSubmission(t *testing.T) {
	ds := testData()
	s := New(ds, "v1", Options{Workers: 8})
	defer s.Close()

	refs := map[string]*queries.Result{}
	for _, q := range queries.All() {
		refs[q.ID] = queries.Reference(ds, q)
	}

	reqs := allRequests()
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range reqs {
				req := reqs[(i+c)%len(reqs)]
				resp, err := s.Do(context.Background(), req)
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				if !resp.Result.Equal(refs[req.QueryID]) {
					errs <- fmt.Errorf("client %d: %s on %s differs from reference", c, req.QueryID, req.Engine)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if want := int64(clients * len(reqs)); st.Requests != want {
		t.Errorf("stats recorded %d requests, want %d", st.Requests, want)
	}
	// 78 distinct requests served 16x each: each executes exactly once, and
	// every other request is answered without executing — from the result
	// cache, or by coalescing onto the identical request in flight.
	if executed := st.ResultMisses - st.Coalesced; executed != int64(len(reqs)) {
		t.Errorf("%d executions (%d hits, %d misses, %d of them coalesced), want exactly %d",
			executed, st.ResultHits, st.ResultMisses, st.Coalesced, len(reqs))
	}
}

func TestPlanAndResultCache(t *testing.T) {
	ds := testData()
	s := New(ds, "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	req := Request{QueryID: "q2.1", Engine: queries.EngineCPU}

	first, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCached || first.ResultCached {
		t.Errorf("first request: PlanCached=%v ResultCached=%v, want cold", first.PlanCached, first.ResultCached)
	}

	second, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.PlanCached || !second.ResultCached {
		t.Errorf("second request: PlanCached=%v ResultCached=%v, want both hits", second.PlanCached, second.ResultCached)
	}
	if !second.Result.Equal(first.Result) || second.SimSeconds != first.SimSeconds {
		t.Error("cached response differs from computed response")
	}

	// A different engine on the same query reuses the plan but not the result.
	other, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: queries.EngineGPU})
	if err != nil {
		t.Fatal(err)
	}
	if !other.PlanCached {
		t.Error("engine switch: plan should be shared across engines")
	}
	if other.ResultCached {
		t.Error("engine switch: result cache must be keyed by engine")
	}

	// NoCache bypasses the result cache but still reuses the plan.
	forced, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !forced.PlanCached {
		t.Error("NoCache: plan cache should still apply")
	}
	if forced.ResultCached {
		t.Error("NoCache: result must be recomputed")
	}
	if !forced.Result.Equal(first.Result) {
		t.Error("NoCache recomputation differs from original result")
	}

	st := s.Stats()
	if st.PlanHits != 3 || st.PlanMisses != 1 {
		t.Errorf("plan cache: %d hits / %d misses, want 3/1", st.PlanHits, st.PlanMisses)
	}
	if st.ResultHits != 1 || st.ResultMisses != 3 {
		t.Errorf("result cache: %d hits / %d misses, want 1/3", st.ResultHits, st.ResultMisses)
	}
	if st.CachedPlans != 1 {
		t.Errorf("cached plans = %d, want 1", st.CachedPlans)
	}
	if st.CachedResults != 2 {
		t.Errorf("cached results = %d, want 2 (cpu + gpu)", st.CachedResults)
	}
}

// TestSetDatasetInvalidation swaps the dataset and checks that nothing
// compiled against the old version is served: plans recompile and the new
// (differently sized) data produces a different result.
func TestSetDatasetInvalidation(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	req := Request{QueryID: "q1.1", Engine: queries.EngineCPU}

	old, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if old.Version != "v1" {
		t.Errorf("response version = %q, want v1", old.Version)
	}

	next := ssb.GenerateRows(1 << 11)
	s.SetDataset("v2", next)
	if st := s.Stats(); st.CachedPlans != 0 || st.CachedResults != 0 {
		t.Errorf("after swap: %d plans / %d results still cached", st.CachedPlans, st.CachedResults)
	}

	fresh, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Version != "v2" {
		t.Errorf("response version = %q, want v2", fresh.Version)
	}
	if fresh.PlanCached || fresh.ResultCached {
		t.Error("request after swap must recompile and recompute")
	}
	want := queries.Compile(next, mustQuery(t, "q1.1")).Run(queries.EngineCPU)
	if !fresh.Result.Equal(want) {
		t.Error("post-swap result does not match the new dataset")
	}
	if fresh.Result.Equal(old.Result) && fresh.SimSeconds == old.SimSeconds {
		t.Error("post-swap response identical to pre-swap response; stale serve suspected")
	}
}

func mustQuery(t *testing.T, id string) queries.Query {
	t.Helper()
	q, err := queries.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestAliasEngineRequest submits engine aliases through the Go API: they
// must execute (not panic the worker) and share cache entries with the
// canonical engine name.
func TestAliasEngineRequest(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	byAlias, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	if byAlias.Request.Engine != queries.EngineGPU {
		t.Errorf("alias request not canonicalized: engine = %q", byAlias.Request.Engine)
	}
	byName, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: queries.EngineGPU})
	if err != nil {
		t.Fatal(err)
	}
	if !byName.ResultCached {
		t.Error("canonical-name request should hit the alias request's cache entry")
	}
	if !byName.Result.Equal(byAlias.Result) {
		t.Error("alias and canonical results differ")
	}
}

func TestRequestErrors(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Do(ctx, Request{QueryID: "q9.9", Engine: queries.EngineCPU}); err == nil {
		t.Error("unknown query id: want error")
	}
	if _, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: "Postgres"}); err == nil {
		t.Error("unknown engine: want error")
	}
	if st := s.Stats(); st.Errors != 2 {
		t.Errorf("stats recorded %d errors, want 2", st.Errors)
	}
}

func TestCloseRejectsSubmissions(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	resp, err := s.Do(context.Background(), Request{QueryID: "q1.1", Engine: queries.EngineCPU})
	if err != nil || resp.Err != nil {
		t.Fatalf("pre-close request failed: %v / %v", err, resp.Err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit(context.Background(), Request{QueryID: "q1.1", Engine: queries.EngineCPU}); err != ErrClosed {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
}

func TestDoHonorsContext(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := s.Do(ctx, Request{QueryID: "q4.1", Engine: queries.EngineMonet})
	// Either the request won the race and completed (err == nil), or the
	// canceled wait returned promptly with context.Canceled.
	if err != nil && err != context.Canceled {
		t.Errorf("Do with canceled context: err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("canceled Do did not return promptly")
	}
}

// TestDoHonorsContextWhileQueueFull saturates a 1-worker, depth-1 queue
// with slow requests and checks that a deadline-bound Do returns promptly
// instead of blocking on the enqueue.
func TestDoHonorsContextWhileQueueFull(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	// Fill the single worker and the single queue slot with uncached work.
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(context.Background(), Request{QueryID: "q4.1", Engine: queries.EngineGPU, NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU})
	if err != nil && err != context.DeadlineExceeded {
		t.Errorf("Do under full queue: err = %v, want DeadlineExceeded (or completion)", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Do blocked %v past its 50ms deadline", elapsed)
	}
}

// TestServedAnswerIsSharedReadOnly pins the served-answer contract: an
// execution's Answer is built once and shared by pointer, never copied. A
// coalesced follower receives its leader's Answer; 8 goroutines hitting the
// cached key in a named and a respelled SQL spelling all receive that same
// Answer, and so the same Result (under -race, which flags any write to the
// shared answer); and failed, expired and shed replies carry no Answer.
func TestServedAnswerIsSharedReadOnly(t *testing.T) {
	ds := testData()
	s := New(ds, "v1", Options{Workers: 2})
	defer s.Close()
	first := make(chan struct{}, 1)
	release := make(chan struct{})
	s.execHook = func(string) {
		select {
		case first <- struct{}{}:
			<-release // park only the first execution: the leader
		default:
		}
	}
	joined := make(chan struct{}, 1)
	s.flightHook = func() {
		select {
		case joined <- struct{}{}:
		default:
		}
	}

	q21 := mustQuery(t, "q2.1")
	spellings := []Request{
		{QueryID: "q2.1", Engine: queries.EngineCPU},
		{SQL: "-- respelled\n" + q21.Describe(), Engine: queries.EngineCPU},
	}
	ctx := context.Background()
	leaderCh, err := s.Submit(ctx, spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	<-first
	first <- struct{}{}
	followerCh, err := s.Submit(ctx, spellings[1])
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never reached the flight wait")
	}
	close(release)
	leader, follower := <-leaderCh, <-followerCh
	if leader.Err != nil || follower.Err != nil {
		t.Fatalf("leader / follower failed: %v / %v", leader.Err, follower.Err)
	}
	if !follower.Coalesced || follower.Answer != leader.Answer {
		t.Fatalf("follower: coalesced=%v answer %p, want the leader's %p", follower.Coalesced, follower.Answer, leader.Answer)
	}
	want := queries.Reference(ds, q21)
	if !leader.Result.Equal(want) {
		t.Fatal("leader rows differ from the reference")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				resp, err := s.Do(ctx, spellings[(g+i)%2])
				if err != nil || !resp.ResultCached || resp.Answer != leader.Answer {
					t.Errorf("goroutine %d call %d: err=%v cached=%v answer %p, want the leader's %p",
						g, i, err, resp.ResultCached, resp.Answer, leader.Answer)
					return
				}
				if !resp.Result.Equal(want) {
					t.Errorf("goroutine %d call %d: rows differ from the reference", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if resp, err := s.Do(ctx, Request{QueryID: "q9.9", Engine: queries.EngineCPU}); err == nil || resp.Answer != nil {
		t.Errorf("failed request: err=%v answer %p, want an error and no answer", err, resp.Answer)
	}
	shed := New(ds, "v1", Options{Workers: 1, QueueDepth: 1, Shed: true})
	defer shed.Close()
	started, unblock := blockExecutions(shed)
	defer close(unblock)
	if _, err := shed.Submit(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	<-started
	// A nanosecond deadline has lapsed by the next submission's offer.
	doomed, err := shed.Submit(ctx, Request{QueryID: "q1.2", Engine: queries.EngineCPU, Priority: 2, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := shed.Submit(ctx, Request{QueryID: "q1.3", Engine: queries.EngineCPU}) // drops the expired job
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shed.Submit(ctx, Request{QueryID: "q2.2", Engine: queries.EngineCPU, Priority: 1}); err != nil { // evicts the victim
		t.Fatal(err)
	}
	for _, c := range []struct {
		ch   <-chan Response
		want error
	}{{doomed, ErrExpired}, {victim, ErrOverloaded}} {
		if resp := <-c.ch; !errors.Is(resp.Err, c.want) || resp.Answer != nil {
			t.Errorf("err=%v answer %p, want %v and no answer", resp.Err, resp.Answer, c.want)
		}
	}
}

// TestCacheHitAllocationIndependentOfRows pins what a result-cache hit
// costs the host: sharing the stored Answer copies no rows, so a hit on
// q2.1 (hundreds of groups) allocates what a hit on the one-group q1.1
// does, within one size class.
func TestCacheHitAllocationIndependentOfRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := New(ssb.GenerateRows(1<<16), "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	bytesPerHit := func(id string) float64 {
		req := Request{QueryID: id, Placement: PlacementAuto}
		warm, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if id == "q2.1" && len(warm.Result.Groups) < 100 {
			t.Fatalf("q2.1 has %d groups; the comparison needs many", len(warm.Result.Groups))
		}
		const n = 2000
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if resp, err := s.Do(ctx, req); err != nil || !resp.ResultCached {
				t.Fatalf("%s: err=%v cached=%v, want a hit", id, err, resp.ResultCached)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	one, many := bytesPerHit("q1.1"), bytesPerHit("q2.1")
	t.Logf("bytes per cache hit: q1.1 %.0f, q2.1 %.0f", one, many)
	if math.Abs(many-one) > 64 {
		t.Errorf("a cache hit allocates %.0f B on q2.1 and %.0f B on q1.1; a hit must not scale with the rows", many, one)
	}
}

// BenchmarkServeHit is the per-layer benchmark of a result-cache hit: a
// warm key through Do, answered on the calling goroutine — normalize,
// resolve (the catalog for a named query, the bind cache for a SQL
// statement), result key, lookup and stats — without touching the queue.
// ns/op is the hit's host cost and allocs/op what it allocates.
func BenchmarkServeHit(b *testing.B) {
	s := New(testData(), "v1", Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	q21, err := queries.ByID("q2.1")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"named", Request{QueryID: "q2.1", Engine: queries.EngineCPU}},
		{"sql", Request{SQL: q21.Describe(), Engine: queries.EngineCPU}},
	} {
		if _, err := s.Do(ctx, tc.req); err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if resp, err := s.Do(ctx, tc.req); err != nil || !resp.ResultCached {
					b.Fatalf("err=%v cached=%v, want a hit", err, resp.ResultCached)
				}
			}
		})
	}
}

// BenchmarkServeHitParallel is BenchmarkServeHit with GOMAXPROCS callers
// at once, each cycling through a named id, a SQL text and a respelling of
// that text (a bind-cache entry of its own, the same result entry): what a
// hit costs when callers on several cores share the caches and the stats
// tally.
func BenchmarkServeHitParallel(b *testing.B) {
	s := New(testData(), "v1", Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	q21, err := queries.ByID("q2.1")
	if err != nil {
		b.Fatal(err)
	}
	reqs := []Request{
		{QueryID: "q2.1", Engine: queries.EngineCPU},
		{SQL: q21.Describe(), Engine: queries.EngineCPU},
		{SQL: "-- respelled\n" + q21.Describe(), Engine: queries.EngineCPU},
	}
	for _, req := range reqs {
		if _, err := s.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if resp, err := s.Do(ctx, reqs[i%len(reqs)]); err != nil || !resp.ResultCached {
				b.Errorf("err=%v cached=%v, want a hit", err, resp.ResultCached)
				return
			}
		}
	})
}

func TestParseEngine(t *testing.T) {
	cases := map[string]queries.Engine{
		"gpu":            queries.EngineGPU,
		"CPU":            queries.EngineCPU,
		"hyper":          queries.EngineHyper,
		"monet":          queries.EngineMonet,
		"monetdb":        queries.EngineMonet,
		"omnisci":        queries.EngineOmnisci,
		"coproc":         queries.EngineCoproc,
		"Standalone GPU": queries.EngineGPU,
		"Hyper (CPU)":    queries.EngineHyper,
	}
	for in, want := range cases {
		got, err := ParseEngine(in)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseEngine("duckdb"); err == nil {
		t.Error("ParseEngine(duckdb): want error")
	}
	for _, e := range queries.Engines() {
		rt, err := ParseEngine(EngineAlias(e))
		if err != nil || rt != e {
			t.Errorf("alias round-trip for %v failed: %v, %v", e, rt, err)
		}
	}
}

func TestStatsTable(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	if _, err := s.Do(context.Background(), Request{QueryID: "q1.1", Engine: queries.EngineGPU}); err != nil {
		t.Fatal(err)
	}
	tb := s.Stats().Table()
	var buf strings.Builder
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"v1", "gpu", "requests", "wall ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "mean") {
		t.Errorf("stats table should suppress the mean row:\n%s", out)
	}
}

func TestLRU(t *testing.T) {
	c := newLRU(2)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.put("c", 3) // evicts b (least recently used after the get of a)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.get("a"); !ok || v.(int) != 1 {
		t.Error("a lost")
	}
	if v, ok := c.get("c"); !ok || v.(int) != 3 {
		t.Error("c lost")
	}
	c.put("a", 9)
	if v, _ := c.get("a"); v.(int) != 9 {
		t.Error("put did not refresh existing key")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	c.purge()
	if c.len() != 0 {
		t.Errorf("len after purge = %d, want 0", c.len())
	}
}

// TestLRUEvictsLeastRecentlyUsed checks the eviction order against a
// recency list over a seeded mix of gets and puts, so a get that only
// stamps its entry must still count as the most recent use at the next
// eviction.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	const capacity, keys = 5, 12
	c := newLRU(capacity)
	var recent []string // most recent last
	use := func(k string) {
		recent = slices.DeleteFunc(recent, func(r string) bool { return r == k })
		recent = append(recent, k)
	}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 5000; op++ {
		k := strconv.Itoa(rng.Intn(keys))
		if rng.Intn(2) == 0 {
			c.put(k, op)
			use(k)
			if len(recent) > capacity {
				recent = recent[1:]
			}
		} else if _, ok := c.get(k); ok != slices.Contains(recent, k) {
			t.Fatalf("op %d: get(%s) hit=%v, the recency list holds %v", op, k, ok, recent)
		} else if ok {
			use(k)
		}
		if c.len() != len(recent) {
			t.Fatalf("op %d: len %d, the recency list holds %v", op, c.len(), recent)
		}
	}
}

// TestSQLRequestMatchesNamedQuery submits q2.1 as SQL text (its Describe
// rendering) and checks the rows match the named request on every engine.
func TestSQLRequestMatchesNamedQuery(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	q21 := mustQuery(t, "q2.1")
	stmt := q21.Describe()
	for _, e := range queries.Engines() {
		named, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		adhoc, err := s.Do(ctx, Request{SQL: stmt, Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		if !adhoc.Result.Equal(named.Result) {
			t.Errorf("%s: SQL rows differ from named rows", e)
		}
		if len(adhoc.Query.GroupPayloads()) != 2 {
			t.Errorf("%s: resolved query lost its group shape", e)
		}
	}
	st := s.Stats()
	if st.NamedRequests != 6 || st.AdhocRequests != 6 {
		t.Errorf("traffic split = %d named / %d adhoc, want 6/6", st.NamedRequests, st.AdhocRequests)
	}
}

// TestSQLCanonicalCacheKey is the acceptance gate for the ad-hoc cache: an
// ad-hoc (non-SSB) query hits the plan cache on the second request, and
// respellings — whitespace, comments, filter order, literal style — hit
// the result cache too.
func TestSQLCanonicalCacheKey(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	const stmt = `SELECT SUM(revenue), supplier.nation FROM lineorder, supplier
		WHERE lo.suppkey = supplier.key AND supplier.region = 'ASIA' AND lo.quantity < 30
		GROUP BY supplier.nation`

	first, err := s.Do(ctx, Request{SQL: stmt, Engine: queries.EngineGPU})
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCached || first.ResultCached {
		t.Error("first ad-hoc request should be cold")
	}
	second, err := s.Do(ctx, Request{SQL: stmt, Engine: queries.EngineGPU})
	if err != nil {
		t.Fatal(err)
	}
	if !second.PlanCached || !second.ResultCached {
		t.Errorf("second identical request: PlanCached=%v ResultCached=%v, want both", second.PlanCached, second.ResultCached)
	}

	// Same statement, different spelling: whitespace, comments, reordered
	// conjuncts, numeric region code instead of the dictionary literal.
	respelled := "-- respelled\nselect sum(lo_revenue), s_nation from lineorder, supplier where quantity <= 29 and s_region = 2 and suppkey = s_suppkey group by s_nation"
	third, err := s.Do(ctx, Request{SQL: respelled, Engine: queries.EngineGPU})
	if err != nil {
		t.Fatal(err)
	}
	if !third.PlanCached || !third.ResultCached {
		t.Errorf("respelled request: PlanCached=%v ResultCached=%v, want both", third.PlanCached, third.ResultCached)
	}
	if !third.Result.Equal(first.Result) || third.SimSeconds != first.SimSeconds {
		t.Error("respelled request served different rows or simulated time")
	}
	if own, err := sqlfe.Compile(respelled); err != nil || third.Query.ID != own.ID {
		t.Errorf("cache hit is named %q, want its own statement's id (%v)", third.Query.ID, err)
	}
}

// TestSQLNamedShareCanonicalEntries checks a named query and its SQL
// rendering share plan and result cache entries when their physical forms
// coincide. q2.1 qualifies: no fact filters (the binder's filter sort is a
// no-op) and the V100 planner lands on the catalog's hand-picked
// supplier->part->date order, so the canonical forms are equal. Queries
// where the forms diverge (flight 1's filter order, q4.3's join order) get
// independent entries by design — distinct physical plans never collide.
func TestSQLNamedShareCanonicalEntries(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	named, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: queries.EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	q21 := mustQuery(t, "q2.1")
	adhoc, err := s.Do(ctx, Request{SQL: q21.Describe(), Engine: queries.EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	if !adhoc.PlanCached || !adhoc.ResultCached {
		t.Errorf("SQL rendering of q2.1: PlanCached=%v ResultCached=%v, want both (shared with named)", adhoc.PlanCached, adhoc.ResultCached)
	}
	if !adhoc.Result.Equal(named.Result) {
		t.Error("shared entry served different rows")
	}
	if adhoc.SimSeconds != named.SimSeconds {
		t.Error("shared entry served different simulated seconds")
	}
	if adhoc.Query.ID == named.Query.ID {
		t.Errorf("hit kept the named id: %s", adhoc.Query.ID)
	}
}

func TestSQLRequestErrors(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	cases := []Request{
		{SQL: "SELECT * FROM lineorder", Engine: queries.EngineCPU},                             // parse error
		{SQL: "SELECT SUM(tax) FROM lineorder", Engine: queries.EngineCPU},                      // bind error
		{SQL: "SELECT SUM(revenue) FROM lineorder", QueryID: "q1.1", Engine: queries.EngineCPU}, // both set
		{Engine: queries.EngineCPU}, // neither set
	}
	for _, req := range cases {
		if _, err := s.Do(ctx, req); err == nil {
			t.Errorf("request %+v: want error", req)
		}
	}
	if st := s.Stats(); st.Errors != int64(len(cases)) {
		t.Errorf("stats recorded %d errors, want %d", st.Errors, len(cases))
	}
}

// TestSQLBindCacheInvalidation swaps the dataset and checks an ad-hoc
// statement re-binds and re-executes against the new data.
func TestSQLBindCacheInvalidation(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	const stmt = "SELECT SUM(lo.extprice * lo.discount) FROM lineorder WHERE lo.discount BETWEEN 1 AND 3"
	old, err := s.Do(ctx, Request{SQL: stmt, Engine: queries.EngineGPU})
	if err != nil {
		t.Fatal(err)
	}
	s.SetDataset("v2", ssb.GenerateRows(1<<11))
	fresh, err := s.Do(ctx, Request{SQL: stmt, Engine: queries.EngineGPU})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.PlanCached || fresh.ResultCached {
		t.Error("ad-hoc request after swap must rebind and recompute")
	}
	if fresh.Version != "v2" {
		t.Errorf("version = %q, want v2", fresh.Version)
	}
	if fresh.Result.Equal(old.Result) && fresh.SimSeconds == old.SimSeconds {
		t.Error("post-swap ad-hoc response identical to pre-swap; stale bind suspected")
	}
}

// TestPartitionedRequests: a partitioned request returns rows and simulated
// seconds identical to the monolithic request (uniform data, nothing
// prunes), reports its morsel counts, and keys the result cache separately
// from the monolithic entry.
func TestPartitionedRequests(t *testing.T) {
	ds := testData()
	s := New(ds, "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	mono, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: queries.EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	part, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: queries.EngineCPU, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRun(t, "partitioned vs monolithic", part.Result, mono.Result)
	if part.Morsels != 2 || part.Pruned != 0 {
		t.Errorf("morsels/pruned = %d/%d, want 2/0", part.Morsels, part.Pruned)
	}
	if mono.Morsels != 1 {
		t.Errorf("monolithic morsels = %d, want 1", mono.Morsels)
	}
	// The partitioned run shares the plan (same canonical query) but must
	// not have been served from the monolithic result entry.
	if !part.PlanCached {
		t.Error("partitioned request should reuse the compiled plan")
	}
	if part.ResultCached {
		t.Error("partitioned request must not hit the monolithic result entry")
	}
	// Repeating it hits its own cached entry, morsel stats intact.
	again, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: queries.EngineCPU, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !again.ResultCached || again.Morsels != 2 {
		t.Errorf("cached partitioned replay: cached=%v morsels=%d", again.ResultCached, again.Morsels)
	}

	st := s.Stats()
	if st.PartitionedRequests != 2 {
		t.Errorf("partitioned requests = %d, want 2", st.PartitionedRequests)
	}
	if st.Morsels != 4 || st.PrunedMorsels != 0 {
		t.Errorf("morsel tally = %d/%d, want 4/0", st.Morsels, st.PrunedMorsels)
	}
}

// TestPartitionedPruningServed: on a clustered dataset the service reports
// pruned morsels and a cheaper simulated time, with identical rows.
func TestPartitionedPruningServed(t *testing.T) {
	clustered := testData().ClusterBy("orderdate")
	s := New(clustered, "clustered", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	mono, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineGPU})
	if err != nil {
		t.Fatal(err)
	}
	// 4096 rows = 2 tiles, so request the maximum split.
	part, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineGPU, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if part.Pruned == 0 {
		t.Fatalf("expected pruning on clustered layout, morsels=%d", part.Morsels)
	}
	queriestest.Cheaper(t, "pruned served run", part.Result, mono.Result)
	if st := s.Stats(); st.PruneRate <= 0 {
		t.Errorf("prune rate = %.3f, want > 0", st.PruneRate)
	}
}

// TestPartitionedConcurrency floods a 2-worker, 2-helper service with
// partitioned requests from many goroutines: the shared morsel gate must
// neither deadlock nor corrupt results (run under -race in CI).
func TestPartitionedConcurrency(t *testing.T) {
	ds := testData()
	s := New(ds, "v1", Options{Workers: 2, MorselHelpers: 2})
	defer s.Close()
	want := map[string]*queries.Result{}
	for _, id := range []string{"q1.1", "q2.1", "q3.2"} {
		q, _ := queries.ByID(id)
		want[id] = queries.Compile(ds, q).Run(queries.EngineCPU)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := []string{"q1.1", "q2.1", "q3.2"}
			for i := 0; i < 8; i++ {
				id := ids[(g+i)%len(ids)]
				resp, err := s.Do(context.Background(), Request{
					QueryID:    id,
					Engine:     queries.EngineCPU,
					Partitions: 1 + (g+i)%3,
					NoCache:    true,
				})
				if err != nil {
					errs <- err.Error()
					return
				}
				if !resp.Result.Equal(want[id]) || resp.SimSeconds != want[id].Seconds {
					errs <- "partitioned response diverged for " + id
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestGateBounds exercises the morsel gate directly: capacity is strict,
// and release restores it.
func TestGateBounds(t *testing.T) {
	g := make(gate, 2)
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("gate should grant up to capacity")
	}
	if g.TryAcquire() {
		t.Fatal("gate over capacity")
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("released slot not reusable")
	}
}
