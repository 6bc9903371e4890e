package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"crystal/internal/queries"
	"crystal/internal/trace"
)

// TestOfferDropsExpiredBeforeShed pins the full-queue expiry fix: a
// deadline-dead job occupying the only queue slot must be dropped (completed
// with ErrExpired) when a live newcomer arrives, admitting the newcomer —
// even when the newcomer's priority is LOWER than the dead job's, the case
// the old shed/evict policy refused outright (eviction requires a strictly
// lower-priority victim, and the dead job's priority was higher).
func TestOfferDropsExpiredBeforeShed(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 1, Shed: true})
	defer s.Close()
	started, release := blockExecutions(s)

	ctx := context.Background()
	blocker, err := s.Submit(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is parked; the queue slot below is the only one

	dead, err := s.Submit(ctx, Request{QueryID: "q1.2", Engine: queries.EngineCPU, Priority: 5, Deadline: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("queueing the doomed job: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // its deadline lapses in the queue

	// Lower priority than the dead job: the eviction carve-out can never
	// admit this — only the expiry drop can.
	live, err := s.Submit(ctx, Request{QueryID: "q1.3", Engine: queries.EngineCPU, Priority: 1})
	if err != nil {
		t.Fatalf("live lower-priority submission should be admitted after the expiry drop, got %v", err)
	}
	// The drop is synchronous with the offer: the dead job's response is
	// already buffered, shaped exactly like a worker-pickup expiry.
	select {
	case resp := <-dead:
		if !errors.Is(resp.Err, ErrExpired) {
			t.Fatalf("dropped job got %v, want ErrExpired", resp.Err)
		}
		if resp.Answer != nil {
			t.Error("dropped job carries an answer; it must never execute")
		}
		if resp.QueueWait < 5*time.Millisecond {
			t.Errorf("dropped job reports queue wait %v, want >= its 5ms deadline", resp.QueueWait)
		}
	default:
		t.Fatal("expired job's response not buffered at offer time")
	}
	close(release)
	if resp := <-blocker; resp.Err != nil {
		t.Fatalf("blocker failed: %v", resp.Err)
	}
	if resp := <-live; resp.Err != nil {
		t.Fatalf("admitted live request failed: %v", resp.Err)
	}
	st := s.Stats()
	if st.Expired != 1 {
		t.Errorf("stats recorded %d expired, want 1", st.Expired)
	}
	if st.Shed != 0 {
		t.Errorf("stats recorded %d shed, want 0 (the expiry drop made room)", st.Shed)
	}
}

// TestEvictionParityAccounting pins shed-path parity: an evicted victim and
// a refused newcomer must be indistinguishable in error type and accounting
// — both observe the typed ErrOverloaded (through Do, the path ssbserve maps
// to HTTP 429 + Retry-After) and each increments the shed counter exactly
// once. Runs both paths concurrently so -race covers the eviction handoff.
func TestEvictionParityAccounting(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 1, Shed: true})
	defer s.Close()
	started, release := blockExecutions(s)

	ctx := context.Background()
	blocker, err := s.Submit(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// The victim waits synchronously through Do — exactly what an HTTP
	// handler does — so its eviction must surface as a returned
	// ErrOverloaded, not just a channel payload.
	var wg sync.WaitGroup
	var victimErr error
	victimQueued := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(victimQueued)
		_, victimErr = s.Do(ctx, Request{QueryID: "q1.2", Engine: queries.EngineCPU, Priority: 1})
	}()
	<-victimQueued
	// Wait until the victim actually occupies the queue slot.
	for i := 0; s.queue.len() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	// Higher priority evicts the victim; equal priority is refused.
	evictor, err := s.Submit(ctx, Request{QueryID: "q1.3", Engine: queries.EngineCPU, Priority: 2})
	if err != nil {
		t.Fatalf("evicting submission should be admitted, got %v", err)
	}
	_, refusedErr := s.Do(ctx, Request{QueryID: "q2.1", Engine: queries.EngineCPU, Priority: 2})

	wg.Wait()
	if !errors.Is(victimErr, ErrOverloaded) {
		t.Errorf("evicted victim observed %v, want ErrOverloaded", victimErr)
	}
	if !errors.Is(refusedErr, ErrOverloaded) {
		t.Errorf("refused newcomer observed %v, want ErrOverloaded", refusedErr)
	}
	close(release)
	if resp := <-blocker; resp.Err != nil {
		t.Fatalf("blocker failed: %v", resp.Err)
	}
	if resp := <-evictor; resp.Err != nil {
		t.Fatalf("evictor failed: %v", resp.Err)
	}
	st := s.Stats()
	if st.Shed != 2 {
		t.Errorf("stats recorded %d shed, want 2 (eviction and refusal count identically)", st.Shed)
	}
	if st.Errors != 0 {
		t.Errorf("stats recorded %d errors; shed must not be double-counted as errors", st.Errors)
	}
}

// TestServeBatchesCompatibleQueries drives the end-to-end batch path: with
// MaxBatch enabled, compatible requests queued behind a parked worker are
// drained into one shared-scan execution whose members report rows and
// simulated seconds identical to their solo runs, with the Batched
// telemetry, the batch stats counters, the /metrics surface and the
// batch-phase trace all consistent.
func TestServeBatchesCompatibleQueries(t *testing.T) {
	ds := testData()
	s := New(ds, "v1", Options{Workers: 1, QueueDepth: 16, MaxBatch: 8, Trace: true})
	defer s.Close()
	started, release := blockExecutions(s)

	ctx := context.Background()
	blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Three compatible requests (same engine shape, overlapping fact
	// footprints) queue while the worker is parked.
	ids := []string{"q1.1", "q1.2", "q1.3"}
	chans := make([]<-chan Response, len(ids))
	for i, id := range ids {
		chans[i], err = s.Submit(ctx, Request{QueryID: id, Engine: queries.EngineCPU})
		if err != nil {
			t.Fatalf("queueing %s: %v", id, err)
		}
	}
	close(release)
	if resp := <-blocker; resp.Err != nil {
		t.Fatalf("blocker failed: %v", resp.Err)
	}

	// Solo reference: a batching-disabled service over the same dataset.
	solo := New(ds, "v1", Options{Workers: 1})
	defer solo.Close()

	var shareSum, soloSum float64
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("batched %s failed: %v", ids[i], resp.Err)
		}
		if !resp.Batched {
			t.Fatalf("%s: response not batched", ids[i])
		}
		if resp.BatchSize != len(ids) {
			t.Errorf("%s: batch size %d, want %d", ids[i], resp.BatchSize, len(ids))
		}
		ref, err := solo.Do(ctx, Request{QueryID: ids[i], Engine: queries.EngineCPU})
		if err != nil {
			t.Fatalf("solo %s failed: %v", ids[i], err)
		}
		if !resp.Result.Equal(ref.Result) {
			t.Errorf("%s: batched rows differ from solo service", ids[i])
		}
		if resp.SimSeconds != ref.SimSeconds {
			t.Errorf("%s: batched sim %.12f != solo %.12f", ids[i], resp.SimSeconds, ref.SimSeconds)
		}
		if resp.BatchShareSeconds <= 0 || resp.BatchShareSeconds > resp.SimSeconds {
			t.Errorf("%s: share %.12f out of (0, %.12f]", ids[i], resp.BatchShareSeconds, resp.SimSeconds)
		}
		shareSum += resp.BatchShareSeconds
		soloSum += resp.SimSeconds
		if resp.Trace == nil {
			t.Fatalf("%s: no trace", ids[i])
		}
		var batchSpan *trace.Span
		for _, c := range resp.Trace.Root.Children {
			if c.Phase == trace.PhaseBatch {
				batchSpan = c
			}
		}
		if batchSpan == nil {
			t.Fatalf("%s: trace has no batch span", ids[i])
		}
		if err := trace.VerifyBatch(batchSpan); err != nil {
			t.Errorf("%s: batch trace invariant: %v", ids[i], err)
		}
	}
	// The q1.x footprints overlap heavily: the batch must be strictly
	// cheaper than the sum of its members' solo runs.
	if shareSum >= soloSum {
		t.Errorf("batch shares sum %.12f, not strictly under solo sum %.12f", shareSum, soloSum)
	}

	st := s.Stats()
	if st.Batches != 1 {
		t.Errorf("stats recorded %d batches, want 1", st.Batches)
	}
	if st.BatchedRequests != int64(len(ids)) {
		t.Errorf("stats recorded %d batched requests, want %d", st.BatchedRequests, len(ids))
	}
	if st.BatchRate <= 0 {
		t.Error("stats batch rate is zero with batched traffic")
	}
	if st.BatchSharedScanBytes <= 0 || st.BatchSharedScanBytes >= st.BatchSoloScanBytes {
		t.Errorf("batch scan bytes %d not strictly under solo %d", st.BatchSharedScanBytes, st.BatchSoloScanBytes)
	}

	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"ssb_batches_total 1", "ssb_batched_requests_total 3", `ssb_batch_scan_bytes_total{accounting="shared"}`} {
		if !strings.Contains(b.String(), metric) {
			t.Errorf("metrics exposition missing %q", metric)
		}
	}
}

// TestServeBatchDropsExpiredPeers pins the drain-side expiry path: a
// deadline-dead request sitting between compatible peers is completed with
// ErrExpired during batch formation, and the remaining peers still batch.
func TestServeBatchDropsExpiredPeers(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 16, MaxBatch: 8})
	defer s.Close()
	started, release := blockExecutions(s)

	ctx := context.Background()
	blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	leader, err := s.Submit(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := s.Submit(ctx, Request{QueryID: "q1.2", Engine: queries.EngineCPU, Deadline: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := s.Submit(ctx, Request{QueryID: "q1.3", Engine: queries.EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the doomed peer's deadline lapses
	close(release)

	if resp := <-blocker; resp.Err != nil {
		t.Fatalf("blocker failed: %v", resp.Err)
	}
	if resp := <-doomed; !errors.Is(resp.Err, ErrExpired) {
		t.Fatalf("doomed peer got %v, want ErrExpired", resp.Err)
	}
	for name, ch := range map[string]<-chan Response{"leader": leader, "peer": peer} {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("%s failed: %v", name, resp.Err)
		}
		if !resp.Batched || resp.BatchSize != 2 {
			t.Errorf("%s: batched=%v size=%d, want a 2-member batch", name, resp.Batched, resp.BatchSize)
		}
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Errorf("stats recorded %d expired, want 1", st.Expired)
	}
}

// TestDrainMatching is the white-box queue test: drainMatching visits
// best-first, takes at most max, removes drops, and leaves the kept jobs in
// their FIFO order.
func TestDrainMatching(t *testing.T) {
	q := newJobQueue()
	mk := func(id string, pri int) *job {
		return &job{req: Request{QueryID: id, Priority: pri}, enqueued: time.Now(), done: make(chan Response, 1)}
	}
	jobs := []*job{mk("a", 0), mk("b", 2), mk("c", 0), mk("d", 2), mk("e", 0)}
	for _, j := range jobs {
		q.push(j)
	}
	// Take the two priority-2 jobs (visited first), drop "c", keep the rest.
	taken, dropped := q.drainMatching(8, func(j *job) int {
		switch j.req.QueryID {
		case "b", "d":
			return drainTake
		case "c":
			return drainDrop
		default:
			return drainKeep
		}
	})
	if len(taken) != 2 || taken[0].req.QueryID != "b" || taken[1].req.QueryID != "d" {
		t.Fatalf("taken = %v, want [b d] in best-first order", ids(taken))
	}
	if len(dropped) != 1 || dropped[0].req.QueryID != "c" {
		t.Fatalf("dropped = %v, want [c]", ids(dropped))
	}
	want := []string{"a", "e"}
	for _, w := range want {
		j, ok := q.pop()
		if !ok || j.req.QueryID != w {
			t.Fatalf("pop got %q, want %q", j.req.QueryID, w)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: %d left", q.len())
	}
	// max bounds the take count even when more match.
	for _, j := range jobs {
		q.push(j)
	}
	taken, _ = q.drainMatching(2, func(*job) int { return drainTake })
	if len(taken) != 2 {
		t.Fatalf("drainMatching(2) took %d jobs", len(taken))
	}

	// Over random heaps, it takes exactly the jobs the classifier took and
	// leaves every other job queued (removing by heap index once removed a
	// job that a sift had moved into a pending index instead).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		q := newJobQueue()
		n := 3 + rng.Intn(12)
		for i := 0; i < n; i++ {
			q.push(&job{req: Request{Priority: rng.Intn(4)}, done: make(chan Response, 1)})
		}
		want := map[*job]bool{}
		taken, _ := q.drainMatching(n, func(j *job) int {
			if rng.Intn(2) == 0 {
				want[j] = true
				return drainTake
			}
			return drainKeep
		})
		for _, j := range taken {
			if !want[j] {
				t.Fatalf("trial %d: drainMatching took a job the classifier kept", trial)
			}
		}
		if len(taken) != len(want) || q.len() != n-len(want) {
			t.Fatalf("trial %d: took %d of %d classified, %d left of %d", trial, len(taken), len(want), q.len(), n-len(want))
		}
	}
}

func ids(jobs []*job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.req.QueryID
	}
	return out
}

// TestServeBatchPlacements drives the batch path through the scheduler
// placements: auto-routed, explicit hybrid, and device-resident fleet
// shapes all batch, and every member's rows and simulated seconds match a
// batching-disabled service's answer for the same request.
func TestServeBatchPlacements(t *testing.T) {
	ds := testData()
	cases := []struct {
		name string
		req  func(id string) Request
	}{
		{"auto placement", func(id string) Request {
			return Request{QueryID: id, Placement: "auto", Interconnect: "nvlink"}
		}},
		{"hybrid placement", func(id string) Request {
			return Request{QueryID: id, Placement: "hybrid", GPUs: 2, Partitions: 16}
		}},
		{"fleet", func(id string) Request {
			return Request{QueryID: id, Engine: queries.EngineGPU, GPUs: 2, Interconnect: "nvlink"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(ds, "v1", Options{Workers: 1, QueueDepth: 16, MaxBatch: 8})
			defer s.Close()
			started, release := blockExecutions(s)
			ctx := context.Background()
			blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			<-started
			ids := []string{"q1.1", "q1.2", "q1.3"}
			chans := make([]<-chan Response, len(ids))
			for i, id := range ids {
				if chans[i], err = s.Submit(ctx, tc.req(id)); err != nil {
					t.Fatalf("queueing %s: %v", id, err)
				}
			}
			close(release)
			if resp := <-blocker; resp.Err != nil {
				t.Fatalf("blocker failed: %v", resp.Err)
			}
			solo := New(ds, "v1", Options{Workers: 1})
			defer solo.Close()
			for i, ch := range chans {
				resp := <-ch
				if resp.Err != nil {
					t.Fatalf("batched %s failed: %v", ids[i], resp.Err)
				}
				if !resp.Batched || resp.BatchSize != len(ids) {
					t.Fatalf("%s: batched=%v size=%d, want a full batch", ids[i], resp.Batched, resp.BatchSize)
				}
				ref, err := solo.Do(ctx, tc.req(ids[i]))
				if err != nil {
					t.Fatalf("solo %s failed: %v", ids[i], err)
				}
				if !resp.Result.Equal(ref.Result) {
					t.Errorf("%s: batched rows differ from solo service", ids[i])
				}
				if resp.SimSeconds != ref.SimSeconds {
					t.Errorf("%s: batched sim %.12f != solo %.12f", ids[i], resp.SimSeconds, ref.SimSeconds)
				}
				if resp.Placement != ref.Placement {
					t.Errorf("%s: batched placement %q != solo %q", ids[i], resp.Placement, ref.Placement)
				}
				if resp.GPUs != ref.GPUs || len(resp.Devices) != len(ref.Devices) {
					t.Errorf("%s: fleet telemetry differs (gpus %d vs %d, devices %d vs %d)",
						ids[i], resp.GPUs, ref.GPUs, len(resp.Devices), len(ref.Devices))
				}
			}
		})
	}
}

// TestBatchKeyRejects pins which shapes the batch former refuses to touch:
// standalone NoCache requests, malformed engine/placement/interconnect
// parameters, non-GPU engines with fleet or placement fields, and the two
// residency-dependent shapes whose solo pricing consults device-cache state
// the shared scan never sees.
func TestBatchKeyRejects(t *testing.T) {
	// DeviceCacheBytes defaults on (sized to the V100), so "plain" must
	// disable residency explicitly; "resident" adds the constrained-fleet
	// shard region that makes packed fleet runs residency-dependent too.
	plain := New(testData(), "v1", Options{Workers: 1, DeviceCacheBytes: -1})
	defer plain.Close()
	resident := New(testData(), "v1", Options{Workers: 1, FleetDeviceMemoryBytes: 1 << 20})
	defer resident.Close()

	cases := []struct {
		name string
		s    *Service
		req  Request
		ok   bool
	}{
		{"plain cpu", plain, Request{QueryID: "q1.1", Engine: queries.EngineCPU}, true},
		{"negative knobs normalize", plain, Request{QueryID: "q1.1", Engine: queries.EngineCPU, Partitions: -1, GPUs: -1}, true},
		{"nocache", plain, Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true}, false},
		{"bad engine", plain, Request{QueryID: "q1.1", Engine: "warp"}, false},
		{"placement", plain, Request{QueryID: "q1.1", Placement: "auto"}, true},
		{"bad placement", plain, Request{QueryID: "q1.1", Placement: "moon"}, false},
		{"placement on cpu engine", plain, Request{QueryID: "q1.1", Engine: queries.EngineCPU, Placement: "auto"}, false},
		{"placement bad link", plain, Request{QueryID: "q1.1", Placement: "auto", Interconnect: "carrier-pigeon"}, false},
		{"fleet", plain, Request{QueryID: "q1.1", Engine: queries.EngineGPU, GPUs: 2}, true},
		{"fleet on cpu engine", plain, Request{QueryID: "q1.1", Engine: queries.EngineCPU, GPUs: 2}, false},
		{"fleet bad link", plain, Request{QueryID: "q1.1", Engine: queries.EngineGPU, GPUs: 2, Interconnect: "carrier-pigeon"}, false},
		{"packed fleet without residency", plain, Request{QueryID: "q1.1", Engine: queries.EngineGPU, GPUs: 2, Packed: true}, true},
		{"packed fleet with residency", resident, Request{QueryID: "q1.1", Engine: queries.EngineGPU, GPUs: 2, Packed: true}, false},
		{"packed coproc without residency", plain, Request{QueryID: "q1.1", Engine: queries.EngineCoproc, Packed: true}, true},
		{"packed coproc with residency", resident, Request{QueryID: "q1.1", Engine: queries.EngineCoproc, Packed: true}, false},
	}
	// A job's batch key is its normalized shape (and snapshot). A request
	// whose shape fails to normalize is answered with its error on its
	// caller and never queues.
	batchKey := func(s *Service, req Request) (queries.Shape, bool) {
		_, j := s.prepare(req, time.Now())
		if j == nil {
			return queries.Shape{}, false
		}
		s.unlead(j, ErrClosed) // nothing follows: release the flight prepare opened
		return j.shape, j.batchable
	}
	for _, tc := range cases {
		if _, got := batchKey(tc.s, tc.req); got != tc.ok {
			t.Errorf("%s: batchable=%v, want %v", tc.name, got, tc.ok)
		}
	}

	// Shape equality is what groups members: partitions and links separate.
	// The test table has two tiles, so a fleet's count clamps to 2: counts
	// that clamp alike are one shape.
	k1, _ := batchKey(plain, Request{QueryID: "q1.1", Engine: queries.EngineGPU, GPUs: 1, Partitions: 1})
	k2, _ := batchKey(plain, Request{QueryID: "q1.2", Engine: queries.EngineGPU, GPUs: 1, Partitions: 1})
	k3, _ := batchKey(plain, Request{QueryID: "q1.1", Engine: queries.EngineGPU, GPUs: 1, Partitions: 2})
	k4, _ := batchKey(plain, Request{QueryID: "q1.1", Engine: queries.EngineGPU, GPUs: 1, Partitions: 1, Interconnect: "nvlink"})
	k5, _ := batchKey(plain, Request{QueryID: "q1.1", Engine: queries.EngineGPU, GPUs: 1, Partitions: 9})
	if k1 != k2 {
		t.Error("same shape with different queries must share a batch key")
	}
	if k1 == k3 || k1 == k4 {
		t.Error("different partition counts or links must not share a batch key")
	}
	if k3 != k5 {
		t.Error("partition counts that clamp to the same morsel map must share a batch key")
	}
}

// TestServeBatchPackedAndWarmPlans covers the coprocessor-packed batch
// shape: with residency disabled, packed coprocessor requests batch like
// any other shape, reuse already-compiled plans, and pay the configured
// ExecDelay once for the whole batch.
func TestServeBatchPackedAndWarmPlans(t *testing.T) {
	ds := testData()
	s := New(ds, "v1", Options{
		Workers: 1, QueueDepth: 16, MaxBatch: 8,
		DeviceCacheBytes: -1, ExecDelay: time.Millisecond,
	})
	defer s.Close()
	ctx := context.Background()
	mk := func(id string) Request {
		return Request{QueryID: id, Engine: queries.EngineCoproc, Packed: true}
	}
	// Warm the plan cache solo, so the batch path hits it. The warm runs use
	// a different partition count: plan-cache keys ignore partitions, so the
	// plans warm, but result-cache keys include them, so the batch members
	// below stay cache misses and still batch (cache-resident work never
	// batches — the solo path replays it).
	ids := []string{"q1.1", "q1.2"}
	for _, id := range ids {
		warm := mk(id)
		warm.Partitions = 2
		if _, err := s.Do(ctx, warm); err != nil {
			t.Fatalf("warming %s: %v", id, err)
		}
	}
	started, release := blockExecutions(s)
	blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	chans := make([]<-chan Response, len(ids))
	for i, id := range ids {
		if chans[i], err = s.Submit(ctx, mk(id)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if resp := <-blocker; resp.Err != nil {
		t.Fatalf("blocker failed: %v", resp.Err)
	}
	solo := New(ds, "v1", Options{Workers: 1, DeviceCacheBytes: -1})
	defer solo.Close()
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("batched packed %s failed: %v", ids[i], resp.Err)
		}
		if !resp.Batched || !resp.Result.Packed {
			t.Errorf("%s: batched=%v packed=%v, want both", ids[i], resp.Batched, resp.Result.Packed)
		}
		if !resp.PlanCached {
			t.Errorf("%s: plan not reused from the warm cache", ids[i])
		}
		ref, err := solo.Do(ctx, mk(ids[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Result.Equal(ref.Result) || resp.SimSeconds != ref.SimSeconds {
			t.Errorf("%s: packed batch differs from solo (sim %.12f vs %.12f)", ids[i], resp.SimSeconds, ref.SimSeconds)
		}
	}
}

// TestServeBatchGPUPlacementFleetMemory covers the explicit pure-GPU
// placement batch and the constrained-fleet memory override.
func TestServeBatchGPUPlacementFleetMemory(t *testing.T) {
	ds := testData()
	for _, tc := range []struct {
		name string
		opts Options
		req  func(id string) Request
	}{
		{"gpu placement", Options{Workers: 1, QueueDepth: 16, MaxBatch: 8},
			func(id string) Request { return Request{QueryID: id, Placement: "gpu"} }},
		{"constrained fleet", Options{Workers: 1, QueueDepth: 16, MaxBatch: 8, DeviceCacheBytes: -1, FleetDeviceMemoryBytes: 1 << 26},
			func(id string) Request { return Request{QueryID: id, Engine: queries.EngineGPU, GPUs: 2} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(ds, "v1", tc.opts)
			defer s.Close()
			started, release := blockExecutions(s)
			ctx := context.Background()
			blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			<-started
			ids := []string{"q1.1", "q1.2"}
			chans := make([]<-chan Response, len(ids))
			for i, id := range ids {
				if chans[i], err = s.Submit(ctx, tc.req(id)); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			if resp := <-blocker; resp.Err != nil {
				t.Fatalf("blocker failed: %v", resp.Err)
			}
			soloOpts := tc.opts
			soloOpts.MaxBatch = 0
			solo := New(ds, "v1", soloOpts)
			defer solo.Close()
			for i, ch := range chans {
				resp := <-ch
				if resp.Err != nil {
					t.Fatalf("batched %s failed: %v", ids[i], resp.Err)
				}
				if !resp.Batched {
					t.Fatalf("%s: not batched", ids[i])
				}
				ref, err := solo.Do(ctx, tc.req(ids[i]))
				if err != nil {
					t.Fatal(err)
				}
				if !resp.Result.Equal(ref.Result) || resp.SimSeconds != ref.SimSeconds {
					t.Errorf("%s: batch differs from solo (sim %.12f vs %.12f)", ids[i], resp.SimSeconds, ref.SimSeconds)
				}
			}
		})
	}
}

// TestFormBatchFallsBackToSolo pins the paths where batch formation bows
// out and the solo path proceeds: an unbatchable leader (NoCache), a
// request whose SQL fails to bind (answered with its error on its caller,
// so it never queues to lead or join a batch), and a peer of another shape
// (left in its queue position and executed solo).
func TestFormBatchFallsBackToSolo(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 16, MaxBatch: 8})
	defer s.Close()
	ctx := context.Background()

	park := func() (<-chan Response, chan<- struct{}) {
		started, release := blockExecutions(s)
		blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		return blocker, release
	}

	// NoCache leader with a compatible peer behind it: neither batches.
	blocker, release := park()
	lead, err := s.Submit(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := s.Submit(ctx, Request{QueryID: "q1.2", Engine: queries.EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if resp := <-blocker; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	for name, ch := range map[string]<-chan Response{"nocache leader": lead, "peer": peer} {
		if resp := <-ch; resp.Err != nil || resp.Batched {
			t.Errorf("%s: err=%v batched=%v, want solo success", name, resp.Err, resp.Batched)
		}
	}

	// A statement that does not bind is answered with its error before it
	// queues; the live request behind it still completes.
	blocker, release = park()
	bad, err := s.Submit(ctx, Request{SQL: "select sum(revenue) from nowhere", Engine: queries.EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	peer2, err := s.Submit(ctx, Request{QueryID: "q1.3", Engine: queries.EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if resp := <-blocker; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp := <-bad; resp.Err == nil {
		t.Error("unbindable leader reported no error")
	}
	if resp := <-peer2; resp.Err != nil || resp.Batched {
		t.Errorf("peer behind bad leader: err=%v batched=%v, want solo success", resp.Err, resp.Batched)
	}

	// A bindable leader with an unbindable peer and a peer of another shape
	// (engine): the first reports its own bind error, the second is kept in
	// the queue and runs solo.
	blocker, release = park()
	lead2, err := s.Submit(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	badPeer, err := s.Submit(ctx, Request{SQL: "select sum(revenue) from nowhere", Engine: queries.EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	otherShape, err := s.Submit(ctx, Request{QueryID: "q1.2", Engine: queries.EngineHyper})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if resp := <-blocker; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp := <-lead2; resp.Err != nil || resp.Batched {
		t.Errorf("leader with only unbindable peers: err=%v batched=%v, want solo success", resp.Err, resp.Batched)
	}
	if resp := <-badPeer; resp.Err == nil {
		t.Error("unbindable peer reported no error")
	}
	if resp := <-otherShape; resp.Err != nil || resp.Batched {
		t.Errorf("peer of another shape: err=%v batched=%v, want solo success", resp.Err, resp.Batched)
	}
}

// TestOfferDropsEveryExpiredJob pins the full-queue expiry scan over random
// heaps: an offer into a full queue hands back every deadline-dead job,
// keeps every live one, and then pops the survivors best-first.
func TestOfferDropsEveryExpiredJob(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dead := time.Now().Add(-time.Hour)
	for trial := 0; trial < 500; trial++ {
		q := newJobQueue()
		n := 3 + rng.Intn(12)
		var expired int
		for i := 0; i < n; i++ {
			j := &job{req: Request{Priority: rng.Intn(4)}, enqueued: time.Now(), done: make(chan Response, 1)}
			if rng.Intn(2) == 0 {
				j.req.Deadline, j.enqueued = time.Millisecond, dead
				expired++
			}
			q.push(j)
		}
		pushed, _, got := q.offer(&job{req: Request{Priority: 9}, done: make(chan Response, 1)}, n)
		if len(got) != expired {
			t.Fatalf("trial %d: offer dropped %d of %d expired jobs", trial, len(got), expired)
		}
		want := n - expired + 1
		if expired == 0 {
			want = n // no room freed: the newcomer evicted the worst job
		}
		if !pushed || q.len() != want {
			t.Fatalf("trial %d: pushed=%v, %d queued, want the newcomer admitted and %d queued", trial, pushed, q.len(), want)
		}
		for prev := (*job)(nil); q.len() > 0; {
			j, _ := q.pop()
			if j.expired(time.Now()) {
				t.Fatalf("trial %d: an expired job survived the offer", trial)
			}
			if prev != nil && worseJob(prev, j) {
				t.Fatalf("trial %d: pop order broken after the offer", trial)
			}
			prev = j
		}
	}
}

// TestQueueSmallHelpers covers drainMatching's disabled guard and the
// shed-victim ordering helper directly.
func TestQueueSmallHelpers(t *testing.T) {
	q := newJobQueue()
	q.push(&job{req: Request{QueryID: "a"}, done: make(chan Response, 1)})
	if taken, dropped := q.drainMatching(0, func(*job) int { return drainTake }); taken != nil || dropped != nil {
		t.Errorf("drainMatching(0) = %v, %v, want nil, nil", taken, dropped)
	}
	lowOld := &job{req: Request{Priority: 1}, seq: 1}
	lowNew := &job{req: Request{Priority: 1}, seq: 2}
	high := &job{req: Request{Priority: 2}, seq: 3}
	if !worseJob(lowOld, high) || worseJob(high, lowOld) {
		t.Error("lower priority must be the worse keep")
	}
	if !worseJob(lowNew, lowOld) || worseJob(lowOld, lowNew) {
		t.Error("within a priority the newest arrival must be the worse keep")
	}
}

// TestBatchSkipsCachedWork pins the cache/batching interaction: work the
// result cache can answer never batches. A cache-resident request is
// answered on its caller and never queues — so it can neither join nor lead
// a batch — and batch members publish their results so later identical
// requests replay from cache.
func TestBatchSkipsCachedWork(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 16, MaxBatch: 8, ResultCacheSize: 16})
	defer s.Close()
	ctx := context.Background()
	mk := func(id string) Request { return Request{QueryID: id, Engine: queries.EngineCPU} }

	// Prime q1.2: it must be answered from the cache, never batched.
	primed, err := s.Do(ctx, mk("q1.2"))
	if err != nil {
		t.Fatal(err)
	}
	started, release := blockExecutions(s)
	blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ids := []string{"q1.1", "q1.2", "q1.3"}
	chans := make([]<-chan Response, len(ids))
	for i, id := range ids {
		if chans[i], err = s.Submit(ctx, mk(id)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if resp := <-blocker; resp.Err != nil {
		t.Fatalf("blocker failed: %v", resp.Err)
	}
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("%s failed: %v", ids[i], resp.Err)
		}
		if ids[i] == "q1.2" {
			if resp.Batched || !resp.ResultCached || resp.QueueWait != 0 {
				t.Errorf("cached q1.2: batched=%v resultCached=%v queueWait=%v, want a cache replay that never queued",
					resp.Batched, resp.ResultCached, resp.QueueWait)
			}
			if !resp.Result.Equal(primed.Result) {
				t.Error("cached q1.2 replayed different rows")
			}
			continue
		}
		if !resp.Batched || resp.BatchSize != 2 {
			t.Errorf("%s: batched=%v size=%d, want a 2-member batch around the cached peer", ids[i], resp.Batched, resp.BatchSize)
		}
	}
	// The batch published its members under their solo keys: an identical
	// request replays from cache instead of executing again.
	rep, err := s.Do(ctx, mk("q1.1"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ResultCached || rep.Batched {
		t.Errorf("post-batch q1.1: resultCached=%v batched=%v, want a cache replay", rep.ResultCached, rep.Batched)
	}
	if st := s.Stats(); st.Batches != 1 || st.BatchedRequests != 2 {
		t.Errorf("stats: batches=%d batchedRequests=%d, want 1/2", st.Batches, st.BatchedRequests)
	}

	// Both flight members are now cache-resident: submitted behind a parked
	// worker, neither queues, so they never form a batch — each replays
	// from the cache on its caller.
	started2, release2 := blockExecutions(s)
	blocker2, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started2
	a, err := s.Submit(ctx, mk("q1.1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(ctx, mk("q1.3"))
	if err != nil {
		t.Fatal(err)
	}
	close(release2)
	if resp := <-blocker2; resp.Err != nil {
		t.Fatalf("second blocker failed: %v", resp.Err)
	}
	for _, ch := range []<-chan Response{a, b} {
		resp := <-ch
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Batched || !resp.ResultCached {
			t.Errorf("cached pair: batched=%v resultCached=%v, want solo cache replays", resp.Batched, resp.ResultCached)
		}
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Errorf("cached pair formed a batch: batches=%d, want still 1", st.Batches)
	}

	// Members are published under the one result key every spelling of a
	// request normalizes to: a request first answered inside a batch replays
	// from cache when it comes back solo spelled differently — engine alias,
	// GPUs left to the placement default, negative or oversize partition
	// counts (a placement raises them to GPUs+1 and the shard map clamps
	// them to the tile count, two at this scale).
	for _, tc := range []struct {
		name               string
		batched, respelled func(id string) Request
	}{
		{"classic dispatch",
			func(id string) Request { return Request{QueryID: id, Engine: queries.EngineCPU} },
			func(id string) Request { return Request{QueryID: id, Engine: "cpu", Partitions: -3, GPUs: -1} }},
		{"placement",
			func(id string) Request {
				return Request{QueryID: id, Placement: "hybrid", GPUs: 1, Interconnect: "pcie", Partitions: 1 << 10}
			},
			func(id string) Request {
				return Request{QueryID: id, Engine: "gpu", Placement: " Hybrid ", Partitions: -7}
			}},
	} {
		started, release := blockExecutions(s)
		blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		flight := []string{"q2.1", "q2.2", "q2.3"}
		chans := make([]<-chan Response, len(flight))
		for i, id := range flight {
			if chans[i], err = s.Submit(ctx, tc.batched(id)); err != nil {
				t.Fatal(err)
			}
		}
		close(release)
		if resp := <-blocker; resp.Err != nil {
			t.Fatalf("%s: blocker failed: %v", tc.name, resp.Err)
		}
		for i, id := range flight {
			first := <-chans[i]
			if first.Err != nil || !first.Batched {
				t.Fatalf("%s %s: err=%v batched=%v, want a batch member", tc.name, id, first.Err, first.Batched)
			}
			rep, err := s.Do(ctx, tc.respelled(id))
			if err != nil {
				t.Fatalf("%s %s respelled: %v", tc.name, id, err)
			}
			if !rep.ResultCached || rep.Batched {
				t.Errorf("%s %s respelled: resultCached=%v batched=%v, want a cache replay", tc.name, id, rep.ResultCached, rep.Batched)
			}
			if !rep.Result.Equal(first.Result) || rep.SimSeconds != first.SimSeconds || rep.Request != first.Request {
				t.Errorf("%s %s respelled: replay differs from the batch member's answer (request %+v vs %+v)",
					tc.name, id, rep.Request, first.Request)
			}
		}
	}
}
