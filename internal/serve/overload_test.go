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
)

// blockExecutions installs an execHook that parks every real execution
// on the returned release channel, after announcing its result-cache key
// on started. Close(release) lets all executions proceed. Must be called
// before any traffic.
func blockExecutions(s *Service) (started chan string, release chan struct{}) {
	started = make(chan string, 64)
	release = make(chan struct{})
	s.execHook = func(key string) {
		started <- key
		<-release
	}
	return started, release
}

// TestOverloadGracefulDegradation drives a shedding service at 10x its
// closed-loop saturation concurrency with a seeded workload and pins the
// overload invariants: request conservation (every offered request ends
// as exactly one completed, shed or expired outcome — no silent drops,
// no double-sends), every shed submission observes ErrOverloaded, every
// admitted request gets a well-formed response, and goodput does not
// collapse: the overloaded run completes at least the 1x baseline count
// minus what it shed.
func TestOverloadGracefulDegradation(t *testing.T) {
	ds := testData()
	const workers = 4
	rng := rand.New(rand.NewSource(1))
	catalog := queries.All()

	// Pin every execution to at least a millisecond (Options.ExecDelay) so
	// the overload phase is overloaded by construction on any machine: 40
	// clients against 4 workers x 1ms can never drain a worker-deep queue
	// fast enough to avoid shedding, while 4 clients (== workers) never
	// fill it at all.
	opts := Options{Workers: workers, QueueDepth: workers, Shed: true, ExecDelay: time.Millisecond}

	// Phase 1 — 1x baseline: closed loop at exactly the worker count, no
	// shedding possible (offered concurrency == service parallelism).
	base := New(ds, "v1", opts)
	const perClient = 25
	run := func(s *Service, clients int, seed int64) (completed, shed, expired int64) {
		var wg sync.WaitGroup
		var nOK, nShed, nExpired atomic.Int64
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < perClient; i++ {
					q := catalog[r.Intn(len(catalog))]
					resp, err := s.Do(context.Background(), Request{
						QueryID:  q.ID,
						Engine:   queries.EngineCPU,
						NoCache:  true, // force a real execution per request
						Deadline: 30 * time.Second,
					})
					switch {
					case err == nil && resp.Err == nil && resp.Result != nil:
						nOK.Add(1)
					case errors.Is(err, ErrOverloaded):
						nShed.Add(1)
					case errors.Is(err, ErrExpired):
						nExpired.Add(1)
					default:
						t.Errorf("request ended in no recognized outcome: err=%v resp.Err=%v", err, resp.Err)
					}
				}
			}(seed + int64(c))
		}
		wg.Wait()
		return nOK.Load(), nShed.Load(), nExpired.Load()
	}

	baseOK, baseShed, baseExpired := run(base, workers, rng.Int63())
	st := base.Stats()
	base.Close()
	if baseShed != 0 || baseExpired != 0 {
		t.Fatalf("1x baseline shed %d / expired %d requests; want 0 (offered concurrency == workers)", baseShed, baseExpired)
	}
	if baseOK != workers*perClient {
		t.Fatalf("1x baseline completed %d, want %d", baseOK, workers*perClient)
	}
	if st.Requests != baseOK || st.Shed != 0 || st.Expired != 0 {
		t.Fatalf("1x baseline stats = %d requests / %d shed / %d expired, want %d/0/0",
			st.Requests, st.Shed, st.Expired, baseOK)
	}

	// Phase 2 — 10x overload: same per-client load, ten times the
	// clients, a queue shallow enough that shedding must happen.
	over := New(ds, "v1", opts)
	defer over.Close()
	clients := 10 * workers
	offered := int64(clients * perClient)
	ok, shedN, expiredN := run(over, clients, rng.Int63())

	// Conservation: every offered request ended in exactly one outcome.
	if got := ok + shedN + expiredN; got != offered {
		t.Fatalf("outcomes %d (ok %d + shed %d + expired %d) != offered %d: silent drop or double-send",
			got, ok, shedN, expiredN, offered)
	}
	// Goodput floor: completions never fall below the 1x baseline minus
	// what the overloaded run shed — shedding is the only loss channel,
	// and an admitted request is never abandoned.
	if ok < baseOK-shedN-expiredN {
		t.Fatalf("goodput %d below baseline-minus-shed floor %d", ok, baseOK-shedN-expiredN)
	}
	// Liveness floors: the queue starts empty, so at least one full
	// queue's worth of the burst is always admitted and completes; and a
	// 10x burst against a depth-4 queue must actually shed.
	if ok < int64(workers) {
		t.Fatalf("overload run completed only %d requests; even a full shed storm admits the first queue depth (%d)", ok, workers)
	}
	if shedN == 0 {
		t.Fatal("10x overload against a worker-deep queue shed nothing; admission control is not engaging")
	}
	ost := over.Stats()
	if ost.Requests != ok {
		t.Errorf("stats recorded %d requests, want %d completions", ost.Requests, ok)
	}
	if ost.Shed != shedN {
		t.Errorf("stats recorded %d shed, clients observed %d ErrOverloaded", ost.Shed, shedN)
	}
	if ost.Expired != expiredN {
		t.Errorf("stats recorded %d expired, clients observed %d ErrExpired", ost.Expired, expiredN)
	}
	if ost.Errors != 0 {
		t.Errorf("overload run recorded %d execution errors, want 0", ost.Errors)
	}
	t.Logf("10x overload: offered %d, completed %d, shed %d (%.1f%%), expired %d",
		offered, ok, shedN, 100*float64(shedN)/float64(offered), expiredN)
}

// TestShedEvictsLowerPriority pins the priority carve-out exactly: with
// the single worker parked and a depth-1 queue, a higher-priority
// newcomer evicts the queued lower-priority request (which observes
// ErrOverloaded on its own response channel, exactly once), while an
// equal-priority newcomer is itself refused.
func TestShedEvictsLowerPriority(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 1, Shed: true})
	defer s.Close()
	started, release := blockExecutions(s)

	ctx := context.Background()
	blocker, err := s.Submit(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now parked inside the blocker's execution

	low, err := s.Submit(ctx, Request{QueryID: "q1.2", Engine: queries.EngineCPU, Priority: 1})
	if err != nil {
		t.Fatalf("low-priority submission should queue, got %v", err)
	}
	high, err := s.Submit(ctx, Request{QueryID: "q1.3", Engine: queries.EngineCPU, Priority: 2})
	if err != nil {
		t.Fatalf("high-priority submission should evict and queue, got %v", err)
	}
	// The eviction is synchronous: low's response is already buffered.
	select {
	case resp := <-low:
		if !errors.Is(resp.Err, ErrOverloaded) {
			t.Fatalf("evicted request got %v, want ErrOverloaded", resp.Err)
		}
		if len(low) != 0 {
			t.Fatal("evicted request's channel received a second response")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evicted request never received its shed response")
	}
	// Equal priority never evicts: the newcomer is refused instead.
	if _, err := s.Submit(ctx, Request{QueryID: "q2.1", Engine: queries.EngineCPU, Priority: 2}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("equal-priority submission into a full queue: err = %v, want ErrOverloaded", err)
	}
	close(release)
	for _, done := range []<-chan Response{blocker, high} {
		resp := <-done
		if resp.Err != nil {
			t.Fatalf("admitted request failed: %v", resp.Err)
		}
	}
	if st := s.Stats(); st.Shed != 2 {
		t.Errorf("stats recorded %d shed, want 2 (one eviction, one refusal)", st.Shed)
	}
}

// TestDeadlineExpiresInQueue parks the worker, queues a request whose
// deadline cannot survive the wait, and checks the worker drops it at
// pickup: ErrExpired, no result, no execution, tallied under Expired.
func TestDeadlineExpiresInQueue(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 2})
	defer s.Close()
	started, release := blockExecutions(s)

	ctx := context.Background()
	blocker, err := s.Submit(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	doomed, err := s.Submit(ctx, Request{QueryID: "q1.2", Engine: queries.EngineCPU, Deadline: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the deadline lapse in the queue
	close(release)

	resp := <-doomed
	if !errors.Is(resp.Err, ErrExpired) {
		t.Fatalf("expired request got %v, want ErrExpired", resp.Err)
	}
	if resp.Answer != nil {
		t.Error("expired request carries an answer; it must never execute")
	}
	if resp.QueueWait < 10*time.Millisecond {
		t.Errorf("expired response reports queue wait %v, want >= its 10ms deadline", resp.QueueWait)
	}
	if (<-blocker).Err != nil {
		t.Fatal("blocker request failed")
	}
	st := s.Stats()
	if st.Expired != 1 {
		t.Errorf("stats recorded %d expired, want 1", st.Expired)
	}
	if st.Requests != 1 {
		t.Errorf("stats recorded %d requests, want 1 (the expired job never executed)", st.Requests)
	}
}

// TestDoDerivesDeadlineFromContext submits through Do with a context
// deadline but no Request.Deadline and checks the derived deadline sheds
// the job at pickup rather than executing it for a caller that is gone.
func TestDoDerivesDeadlineFromContext(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 2})
	defer s.Close()
	started, release := blockExecutions(s)

	blocker, err := s.Submit(context.Background(), Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Do(ctx, Request{QueryID: "q1.2", Engine: queries.EngineCPU}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do past its context deadline: err = %v, want DeadlineExceeded", err)
	}
	time.Sleep(30 * time.Millisecond)
	close(release)
	<-blocker
	// The queued job must have been dropped at pickup, not executed.
	deadlineOK := false
	for i := 0; i < 100; i++ {
		if st := s.Stats(); st.Expired == 1 && st.Requests == 1 {
			deadlineOK = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !deadlineOK {
		st := s.Stats()
		t.Errorf("derived deadline did not drop the abandoned job: %d expired / %d requests, want 1/1",
			st.Expired, st.Requests)
	}
}

// TestSubmitHonorsContextWhileQueueFull pins the Submit fix: a full
// queue no longer blocks a submission whose context is already cancelled
// (checked before the wait) or is cancelled during the wait.
func TestSubmitHonorsContextWhileQueueFull(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	started, release := blockExecutions(s)
	defer close(release)

	bg := context.Background()
	if _, err := s.Submit(bg, Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	<-started // worker parked; the queue's single slot is free
	if _, err := s.Submit(bg, Request{QueryID: "q1.2", Engine: queries.EngineCPU}); err != nil {
		t.Fatal(err) // fills the queue
	}

	// Already-cancelled context: must fail fast, never touch the wait.
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	start := time.Now()
	if _, err := s.Submit(cancelled, Request{QueryID: "q1.3", Engine: queries.EngineCPU}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with pre-cancelled context on a full queue: err = %v, want Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("pre-cancelled Submit blocked on the full queue")
	}

	// Cancelled mid-wait: must unblock promptly.
	ctx, cancel2 := context.WithCancel(bg)
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{QueryID: "q1.4", Engine: queries.EngineCPU})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // land the goroutine in the enqueue wait
	cancel2()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit cancelled mid-wait: err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit stayed blocked after its context was cancelled")
	}
}

// TestPriorityOrdersPickup parks the worker, queues low- then
// high-priority work in blocking mode, and checks workers drain the
// queue highest-priority-first, FIFO within a class.
func TestPriorityOrdersPickup(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 8})
	defer s.Close()
	started, release := blockExecutions(s)

	ctx := context.Background()
	if _, err := s.Submit(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	<-started
	// Queue four jobs while the worker is parked; distinct queries so
	// each pickup announces a distinguishable key.
	order := []struct {
		id  string
		pri int
	}{{"q1.2", 0}, {"q2.1", 5}, {"q2.2", 5}, {"q3.1", 1}}
	for _, o := range order {
		if _, err := s.Submit(ctx, Request{QueryID: o.id, Engine: queries.EngineCPU, NoCache: true, Priority: o.pri}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	var got []string
	for i := 0; i < len(order); i++ {
		select {
		case key := <-started:
			got = append(got, key)
		case <-time.After(10 * time.Second):
			t.Fatal("queued job never started")
		}
	}
	want := []string{"q2.1", "q2.2", "q3.1", "q1.2"} // priority desc, FIFO within
	for i, id := range want {
		q, err := queries.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if wantFrag := q.Canonical(); !strings.Contains(got[i], wantFrag) {
			t.Fatalf("pickup %d = %q, want the canonical form of %s (priority order %v)", i, got[i], id, want)
		}
	}
}

// TestOverloadMetricsExposition checks the shed/expired/coalesced
// counters and the pending gauge reach the Prometheus exposition.
func TestOverloadMetricsExposition(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 1, Shed: true})
	defer s.Close()
	started, release := blockExecutions(s)

	ctx := context.Background()
	blocker, err := s.Submit(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Submit(ctx, Request{QueryID: "q1.2", Engine: queries.EngineCPU}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ctx, Request{QueryID: "q1.3", Engine: queries.EngineCPU}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full shed queue: err = %v, want ErrOverloaded", err)
	}
	var buf strings.Builder
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ssb_shed_total 1",
		"ssb_deadline_expired_total 0",
		"ssb_coalesced_total 0",
		"ssb_queue_pending 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	close(release)
	<-blocker
}
