package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crystal/internal/queries"
	"crystal/internal/ssb"
)

// TestSingleFlightCoalesces constructs a coalesce deterministically: the
// leader parks inside its execution, two identical requests are held at
// the flight wait (observed via the follower hook), and on release all
// three must share the one execution — exactly one run of the key, one
// leader response, two Coalesced responses with byte-identical rows.
func TestSingleFlightCoalesces(t *testing.T) {
	ds := testData()
	s := New(ds, "v1", Options{Workers: 3})
	defer s.Close()

	var mu sync.Mutex
	execs := map[string]int{}
	release := make(chan struct{})
	first := make(chan struct{}, 1)
	s.execHook = func(key string) {
		mu.Lock()
		execs[key]++
		mu.Unlock()
		select {
		case first <- struct{}{}:
			<-release // park only the first execution: the leader
		default:
		}
	}
	joined := make(chan struct{}, 8)
	s.flightHook = func() { joined <- struct{}{} }

	req := Request{QueryID: "q4.1", Engine: queries.EngineGPU}
	ctx := context.Background()
	chans := make([]<-chan Response, 3)
	var err error
	if chans[0], err = s.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}
	<-first // leader is parked inside its execution; the flight is registered
	first <- struct{}{}
	for i := 1; i < 3; i++ {
		if chans[i], err = s.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case <-joined:
		case <-time.After(10 * time.Second):
			t.Fatal("follower never reached the flight wait")
		}
	}
	close(release)

	want := queries.Reference(ds, mustQuery(t, "q4.1"))
	var leaders, followers int
	for _, done := range chans {
		resp := <-done
		if resp.Err != nil {
			t.Fatalf("coalesced request failed: %v", resp.Err)
		}
		if !resp.Result.Equal(want) {
			t.Fatal("response rows differ from the reference: leader and followers must be byte-identical")
		}
		if resp.Coalesced {
			followers++
			if resp.ResultCached {
				t.Error("a response cannot be both coalesced and a cache hit")
			}
		} else {
			leaders++
		}
		if len(done) != 0 {
			t.Fatal("response channel received a second value")
		}
	}
	if leaders != 1 || followers != 2 {
		t.Fatalf("got %d leader / %d coalesced responses, want 1/2", leaders, followers)
	}
	mu.Lock()
	total := 0
	for _, n := range execs {
		total += n
	}
	mu.Unlock()
	if total != 1 {
		t.Fatalf("counted %d executions for 3 identical requests, want exactly 1", total)
	}
	// A later identical request is a plain cache hit, not a coalesce.
	resp, err := s.Do(ctx, req)
	if err != nil || !resp.ResultCached || resp.Coalesced {
		t.Fatalf("post-flight request: err=%v cached=%v coalesced=%v, want cache hit", err, resp.ResultCached, resp.Coalesced)
	}
	st := s.Stats()
	if st.Coalesced != 2 {
		t.Errorf("stats recorded %d coalesced, want 2", st.Coalesced)
	}
	if st.CoalesceRate <= 0 {
		t.Error("coalesce rate not reported")
	}
}

// TestSingleFlightSurvivesLeaderPanic pins completeFlight's promise: a
// leader that panics mid-execution still releases its parked follower with
// an error reply instead of a hang, leaves no flight behind, and the next
// identical request executes afresh and succeeds. The worker loop has no
// recover, so the leader resolves (prepare) and executes on a goroutine of
// the test's own.
func TestSingleFlightSurvivesLeaderPanic(t *testing.T) {
	ds := testData()
	// Closed at the end, not deferred: after a failure the follower's worker
	// may still be stuck on the flight, and Close would wait for it forever.
	s := New(ds, "v1", Options{Workers: 1})
	var execs atomic.Int32
	parked, release := make(chan struct{}), make(chan struct{})
	s.execHook = func(string) {
		if execs.Add(1) == 1 {
			close(parked)
			<-release
			panic("leader fails mid-execution")
		}
	}
	joined := make(chan struct{}, 1)
	s.flightHook = func() { joined <- struct{}{} }

	req := Request{QueryID: "q2.1", Engine: queries.EngineCPU}
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, j := s.prepare(req, time.Now()) // registers the flight it leads
		s.execute(j, 0)
	}()
	<-parked
	follower, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never reached the flight wait")
	}
	close(release)
	if r := <-recovered; r == nil {
		t.Fatal("the leader did not panic")
	}
	select {
	case resp := <-follower:
		if resp.Err == nil || resp.Answer != nil {
			t.Fatalf("follower of a panicked leader: err=%v answer %p, want an error and no answer", resp.Err, resp.Answer)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower hung after its leader panicked")
	}
	s.cacheMu.Lock()
	left := len(s.flights)
	s.cacheMu.Unlock()
	if left != 0 {
		t.Fatalf("%d flights left after the leader panicked", left)
	}
	resp, err := s.Do(context.Background(), req)
	if err != nil || resp.ResultCached || resp.Coalesced || !resp.Result.Equal(queries.Reference(ds, mustQuery(t, "q2.1"))) {
		t.Fatalf("next identical request: err=%v cached=%v coalesced=%v, want a fresh, correct execution", err, resp.ResultCached, resp.Coalesced)
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("%d executions, want 2 (the panicked leader and the retry)", n)
	}
	s.Close()
}

// TestSingleFlightSurvivesDatasetSwap swaps the dataset while a flight
// is mid-execution: the parked leader and its follower must both report
// the generation they joined — the old version's rows, byte-identical —
// while a request arriving after the swap executes fresh against the new
// generation and never shares the stale flight.
func TestSingleFlightSurvivesDatasetSwap(t *testing.T) {
	dsOld := ssb.GenerateRows(1 << 12)
	dsNew := ssb.GenerateRows(1 << 11) // different rows: aggregates differ
	s := New(dsOld, "v-old", Options{Workers: 3})
	defer s.Close()

	var mu sync.Mutex
	execs := map[string]int{}
	release := make(chan struct{})
	first := make(chan struct{}, 1)
	s.execHook = func(key string) {
		mu.Lock()
		execs[key]++
		mu.Unlock()
		select {
		case first <- struct{}{}:
			<-release
		default:
		}
	}
	joined := make(chan struct{}, 8)
	s.flightHook = func() { joined <- struct{}{} }

	req := Request{QueryID: "q2.1", Engine: queries.EngineCPU}
	ctx := context.Background()
	leader, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-first
	first <- struct{}{}
	follower, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never reached the flight wait")
	}
	// The swap lands while leader and follower are both mid-flight.
	s.SetDataset("v-new", dsNew)
	close(release)

	q := mustQuery(t, "q2.1")
	wantOld := queries.Reference(dsOld, q)
	wantNew := queries.Reference(dsNew, q)
	for name, done := range map[string]<-chan Response{"leader": leader, "follower": follower} {
		resp := <-done
		if resp.Err != nil {
			t.Fatalf("%s failed: %v", name, resp.Err)
		}
		if resp.Version != "v-old" {
			t.Fatalf("%s reports version %q, want the generation it joined (v-old)", name, resp.Version)
		}
		if !resp.Result.Equal(wantOld) {
			t.Fatalf("%s rows differ from its generation's reference", name)
		}
		if resp.Result.Equal(wantNew) && !wantOld.Equal(wantNew) {
			t.Fatalf("%s observed the new generation's rows from a stale flight", name)
		}
	}
	// Post-swap, the same request keys a new generation: fresh execution,
	// new rows, no sharing with the drained flight.
	resp, err := s.Do(ctx, req)
	if err != nil || resp.Err != nil {
		t.Fatalf("post-swap request failed: %v / %v", err, resp.Err)
	}
	if resp.Version != "v-new" || resp.Coalesced || resp.ResultCached {
		t.Fatalf("post-swap request: version=%q coalesced=%v cached=%v, want fresh v-new execution",
			resp.Version, resp.Coalesced, resp.ResultCached)
	}
	if !resp.Result.Equal(wantNew) {
		t.Fatal("post-swap rows differ from the new dataset's reference")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(execs) != 2 {
		t.Fatalf("counted %d distinct executed keys, want 2 (one per generation)", len(execs))
	}
	for key, n := range execs {
		if n != 1 {
			t.Fatalf("key %q executed %d times, want exactly once per (key, generation)", key, n)
		}
	}
}

// TestSingleFlightExactlyOnceUnderRace hammers the service from many
// goroutines with identical and distinct requests while another goroutine
// swaps datasets, and asserts the single-flight invariant wholesale:
// every (result-cache key, generation) executed at most once, every
// response's rows match the reference for the dataset version it reports,
// and nothing errors. Run under -race in CI.
func TestSingleFlightExactlyOnceUnderRace(t *testing.T) {
	dsA := ssb.GenerateRows(1 << 12)
	dsB := ssb.GenerateRows(1 << 11)
	s := New(dsA, "A", Options{Workers: 8})
	defer s.Close()

	var mu sync.Mutex
	execs := map[string]int{}
	s.execHook = func(key string) {
		mu.Lock()
		execs[key]++
		mu.Unlock()
	}

	shapes := []Request{
		{QueryID: "q1.1", Engine: queries.EngineCPU},
		{QueryID: "q1.1", Engine: queries.EngineGPU},
		{QueryID: "q2.1", Engine: queries.EngineGPU},
		{QueryID: "q3.1", Engine: queries.EngineHyper},
	}
	refs := map[string]map[string]*queries.Result{"A": {}, "B": {}}
	for _, shape := range shapes {
		q := mustQuery(t, shape.QueryID)
		refs["A"][shape.QueryID] = queries.Reference(dsA, q)
		refs["B"][shape.QueryID] = queries.Reference(dsB, q)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				if flip {
					s.SetDataset("A", dsA)
				} else {
					s.SetDataset("B", dsB)
				}
				flip = !flip
			}
		}
	}()

	const clients, iters = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				shape := shapes[r.Intn(len(shapes))]
				resp, err := s.Do(context.Background(), shape)
				if err != nil || resp.Err != nil {
					t.Errorf("request %+v failed: %v / %v", shape, err, resp.Err)
					return
				}
				if !resp.Result.Equal(refs[resp.Version][shape.QueryID]) {
					t.Errorf("%s on %s: rows differ from version %q's reference — stale generation observed",
						shape.QueryID, shape.Engine, resp.Version)
					return
				}
			}
		}(int64(c) + 7)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()

	mu.Lock()
	defer mu.Unlock()
	for key, n := range execs {
		if n != 1 {
			t.Errorf("key %q executed %d times, want exactly once per (key, generation)", key, n)
		}
	}
	if st := s.Stats(); st.Errors != 0 {
		t.Errorf("race run recorded %d errors", st.Errors)
	}
}

// TestSingleFlightIdenticalRequestsNeverCoBatch pins that two identical
// requests queued behind a parked worker execute once: the second follows
// the first's flight on its caller instead of queueing, so the batch former
// never sees it. With compatible peers queued too, the batch fires the
// execution hook once per member and every key runs exactly once.
func TestSingleFlightIdenticalRequestsNeverCoBatch(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 16, MaxBatch: 8})
	defer s.Close()
	var mu sync.Mutex
	execs := map[string]int{}
	release := make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // before Close, so a failed assertion never hangs it
	first := make(chan struct{}, 1)
	s.execHook = func(key string) {
		mu.Lock()
		execs[key]++
		mu.Unlock()
		select {
		case first <- struct{}{}:
			<-release // park only the blocker
		default:
		}
	}
	ctx := context.Background()
	blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-first
	first <- struct{}{}

	mk := func(id string) Request { return Request{QueryID: id, Engine: queries.EngineCPU} }
	reqs := []Request{mk("q1.1"), mk("q1.1"), mk("q1.2"), mk("q1.3")}
	chans := make([]<-chan Response, len(reqs))
	for i, req := range reqs {
		if chans[i], err = s.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.queue.len(); n != 3 {
		t.Fatalf("%d jobs queued, want 3: the identical q1.1 must follow, not queue", n)
	}
	unpark()
	if resp := <-blocker; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	resps := make([]Response, len(chans))
	for i, ch := range chans {
		if resps[i] = <-ch; resps[i].Err != nil {
			t.Fatalf("%s: %v", reqs[i].QueryID, resps[i].Err)
		}
	}
	leader, follower := resps[0], resps[1]
	if !leader.Batched || leader.Coalesced || leader.ResultCached {
		t.Errorf("q1.1 leader: batched=%v coalesced=%v cached=%v, want a batch member", leader.Batched, leader.Coalesced, leader.ResultCached)
	}
	if !follower.Coalesced || follower.Batched || follower.QueueWait != 0 || follower.Answer != leader.Answer {
		t.Errorf("q1.1 follower: coalesced=%v batched=%v queueWait=%v answer %p, want coalesced onto the leader's %p without queueing",
			follower.Coalesced, follower.Batched, follower.QueueWait, follower.Answer, leader.Answer)
	}
	for _, resp := range resps[2:] {
		if !resp.Batched || resp.BatchSize != 3 {
			t.Errorf("%s: batched=%v size=%d, want a 3-member batch", resp.Query.ID, resp.Batched, resp.BatchSize)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(execs) != 4 {
		t.Errorf("%d distinct keys executed, want 4 (the blocker and three batch members)", len(execs))
	}
	for key, n := range execs {
		if n != 1 {
			t.Errorf("key %q executed %d times, want exactly once", key, n)
		}
	}
	if st := s.Stats(); st.Batches != 1 || st.BatchedRequests != 3 || st.Coalesced != 1 {
		t.Errorf("stats: batches=%d batched=%d coalesced=%d, want 1/3/1", st.Batches, st.BatchedRequests, st.Coalesced)
	}
}

// TestSingleFlightFollowersLeaveThePoolFree pins that followers never take
// a worker: with the leader parked on one of two workers and eight of its
// followers waiting, an unrelated request still starts on the other worker
// while the leader is parked, and every follower then shares the leader's
// answer.
func TestSingleFlightFollowersLeaveThePoolFree(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	leaderReq := Request{QueryID: "q2.1", Engine: queries.EngineCPU}
	other := Request{QueryID: "q4.1", Engine: queries.EngineGPU}
	q21 := mustQuery(t, "q2.1")
	leaderFrag := q21.Canonical()
	started := make(chan string, 8)
	release := make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // before Close, so a failed assertion never hangs it
	var execs atomic.Int32
	s.execHook = func(key string) {
		execs.Add(1)
		started <- key
		if strings.Contains(key, leaderFrag) {
			<-release // park the leader only
		}
	}
	joined := make(chan struct{}, 8)
	s.flightHook = func() { joined <- struct{}{} }

	ctx := context.Background()
	leader, err := s.Submit(ctx, leaderReq)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	followers := make([]<-chan Response, 8)
	for i := range followers {
		if followers[i], err = s.Submit(ctx, leaderReq); err != nil {
			t.Fatal(err)
		}
	}
	for range followers {
		select {
		case <-joined:
		case <-time.After(10 * time.Second):
			t.Fatal("follower never reached the flight wait")
		}
	}
	unrelated, err := s.Submit(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the unrelated request never started while the leader was parked: followers hold the pool")
	}
	if resp := <-unrelated; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	unpark()
	lead := <-leader
	if lead.Err != nil || lead.Coalesced {
		t.Fatalf("leader: err=%v coalesced=%v", lead.Err, lead.Coalesced)
	}
	for i, ch := range followers {
		resp := <-ch
		if resp.Err != nil || !resp.Coalesced || resp.Answer != lead.Answer {
			t.Errorf("follower %d: err=%v coalesced=%v, want the leader's answer", i, resp.Err, resp.Coalesced)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("%d executions, want 2 (the leader and the unrelated request)", n)
	}
}

// TestSingleFlightFollowerBoundedByContext pins that a follower's wait is
// bounded by its own context: Do returns the context's error while the
// leader is still executing, and the leader is unaffected.
func TestSingleFlightFollowerBoundedByContext(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1})
	defer s.Close()
	started, release := blockExecutions(s)
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // before Close, so a failed assertion never hangs it
	req := Request{QueryID: "q3.2", Engine: queries.EngineCPU}
	leader, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Do(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower past its context deadline: err = %v, want DeadlineExceeded", err)
	}
	unpark()
	if resp := <-leader; resp.Err != nil || resp.Coalesced {
		t.Fatalf("leader: err=%v coalesced=%v, want its own execution", resp.Err, resp.Coalesced)
	}
}
