package serve

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crystal/internal/queries"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// TestFleetBoundRefusedOnCaller pins that a GPU count past fleet.MaxGPUs is
// a shape error like any other: each request is answered on its caller —
// Submit hands back a channel already filled — with the fleet bound's error,
// nothing executes or compiles, and every refusal counts as an error.
func TestFleetBoundRefusedOnCaller(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1})
	defer s.Close()
	var executed atomic.Int64
	s.execHook = func(string) { executed.Add(1) }
	reqs := []Request{
		{QueryID: "q1.1", Engine: queries.EngineGPU, GPUs: 65},
		{QueryID: "q1.1", Placement: "hybrid", GPUs: 65},
		{QueryID: "q1.1", Placement: "auto", GPUs: 65},
		{QueryID: "q1.1", Placement: "cpu", GPUs: 1 << 20},
	}
	ctx := context.Background()
	for _, req := range reqs {
		ch, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatalf("%+v: submit: %v", req, err)
		}
		if len(ch) != 1 {
			t.Fatalf("%+v: the refusal was not answered on the caller", req)
		}
		resp := <-ch
		if resp.Err == nil || !strings.Contains(resp.Err.Error(), "-device fleet bound") {
			t.Errorf("%+v: err %v, want the fleet bound", req, resp.Err)
		}
		if resp.Answer != nil {
			t.Errorf("%+v: a refused request carries an answer", req)
		}
	}
	if n := executed.Load(); n != 0 {
		t.Errorf("%d executions for %d refused requests, want 0", n, len(reqs))
	}
	if st := s.Stats(); st.Errors != int64(len(reqs)) || st.PlanMisses != 0 {
		t.Errorf("stats: %d errors, %d plans compiled; want %d and 0", st.Errors, st.PlanMisses, len(reqs))
	}
}

// TestPlacementCPUIsCPUEngine pins the one spelling of the CPU engine:
// placement=cpu runs exactly what engine=cpu runs — rows and simulated
// seconds bit-equal, over the requested morsels — and reports itself as the
// CPU placement with one host executor, no GPU arm and no link.
func TestPlacementCPUIsCPUEngine(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	for _, q := range queries.All() {
		for _, parts := range []int{0, 2} {
			for _, packed := range []bool{false, true} {
				ref, err := s.Do(ctx, Request{QueryID: q.ID, Engine: queries.EngineCPU, Partitions: parts, Packed: packed})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := s.Do(ctx, Request{QueryID: q.ID, Placement: "cpu", GPUs: 4, Interconnect: "nvlink", Partitions: parts, Packed: packed})
				if err != nil {
					t.Fatal(err)
				}
				if !resp.Result.Equal(ref.Result) || resp.SimSeconds != ref.SimSeconds || resp.Morsels != ref.Morsels {
					t.Errorf("%s parts=%d packed=%v: placement=cpu (%.12f s, %d morsels) != engine=cpu (%.12f s, %d morsels)",
						q.ID, parts, packed, resp.SimSeconds, resp.Morsels, ref.SimSeconds, ref.Morsels)
				}
				if resp.Placement != "cpu" || resp.CPUFrac != 1 || resp.GPUs != 0 || resp.Interconnect != "" ||
					resp.MergeBytes != 0 || len(resp.Executors) != 1 || resp.Executors[0].Kind != sched.KindCPU {
					t.Errorf("%s: placement=cpu reports placement %q cpu_frac %v gpus %d link %q merge %d executors %+v",
						q.ID, resp.Placement, resp.CPUFrac, resp.GPUs, resp.Interconnect, resp.MergeBytes, resp.Executors)
				}
				if resp.Request.Engine != queries.EngineCPU || resp.Request.GPUs != 0 || resp.Request.Partitions != parts {
					t.Errorf("%s: placement=cpu echoes %+v", q.ID, resp.Request)
				}
			}
		}
	}
}

// countingGate is a morsel limiter that refuses every helper slot and
// counts the requests: one per scan pass or GPU launch that could fan out.
type countingGate struct{ asked atomic.Int64 }

func (g *countingGate) TryAcquire() bool { g.asked.Add(1); return false }
func (g *countingGate) Release()         {}

// TestServeBatchCPUPlacementSeated pins that placement=cpu batch members
// are seated like engine=cpu members — and a 2-GPU fleet's and the default
// hybrid split's members like them: priced from the one shared pass, not
// executed again, with rows and simulated seconds equal to their solo
// answers.
func TestServeBatchCPUPlacementSeated(t *testing.T) {
	// Eight scan chunks: a pass asks the limiter, and so would the pass of
	// any one fleet device's shard or hybrid arm on its own.
	ds := ssb.GenerateRows(1 << 18)
	ids := []string{"q1.1", "q1.2", "q1.3"}
	solo := New(ds, "v1", Options{Workers: 1})
	defer solo.Close()
	for _, tc := range []struct {
		name string
		req  func(id string) Request
	}{
		{"engine=cpu", func(id string) Request { return Request{QueryID: id, Engine: queries.EngineCPU, Partitions: 4} }},
		{"placement=cpu", func(id string) Request { return Request{QueryID: id, Placement: "cpu", Partitions: 4} }},
		{"gpus=2 fleet", func(id string) Request {
			return Request{QueryID: id, Engine: queries.EngineGPU, GPUs: 2, Interconnect: "nvlink", Partitions: 4}
		}},
		{"placement=hybrid", func(id string) Request { return Request{QueryID: id, Placement: "hybrid", Partitions: 64} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(ds, "v1", Options{Workers: 1, QueueDepth: 16, MaxBatch: 8})
			defer s.Close()
			g := &countingGate{}
			s.morsels = g
			started, release := blockExecutions(s)
			ctx := context.Background()
			blocker, err := s.Submit(ctx, Request{QueryID: "q3.1", Engine: queries.EngineCPU, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			<-started
			chans := make([]<-chan Response, len(ids))
			for i, id := range ids {
				if chans[i], err = s.Submit(ctx, tc.req(id)); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			if resp := <-blocker; resp.Err != nil {
				t.Fatal(resp.Err)
			}
			for i, ch := range chans {
				resp := <-ch
				if resp.Err != nil {
					t.Fatal(resp.Err)
				}
				if !resp.Batched || resp.BatchSize != len(ids) {
					t.Fatalf("%s: batched=%v size=%d, want a full batch", ids[i], resp.Batched, resp.BatchSize)
				}
				ref, err := solo.Do(ctx, tc.req(ids[i]))
				if err != nil {
					t.Fatal(err)
				}
				if !resp.Result.Equal(ref.Result) || resp.SimSeconds != ref.SimSeconds {
					t.Errorf("%s: batched (%.12f s) differs from solo (%.12f s)", ids[i], resp.SimSeconds, ref.SimSeconds)
				}
				if resp.Placement != ref.Placement || resp.CPUFrac != ref.CPUFrac || len(resp.Executors) != len(ref.Executors) {
					t.Errorf("%s: batched placement %q/%v/%d executors, solo %q/%v/%d",
						ids[i], resp.Placement, resp.CPUFrac, len(resp.Executors), ref.Placement, ref.CPUFrac, len(ref.Executors))
				}
			}
			// The blocker's solo pass and the batch's one shared pass: a
			// member that executed again would add a pass of its own.
			if got := g.asked.Load(); got != 2 {
				t.Errorf("%d scan passes, want 2 (the blocker's and the batch's shared one)", got)
			}
		})
	}
}

// TestWorkerSurvivesPanic panics inside a solo execution and inside one
// member of a shared-scan batch. The process survives (this test recovers
// nothing itself); the panicking job, its followers and its batch-mates
// complete with ErrIncomplete, and the next request succeeds.
func TestWorkerSurvivesPanic(t *testing.T) {
	ctx := context.Background()
	key := func(s *Service, req Request) string {
		j := s.prepare(new(Response), Request{QueryID: req.QueryID, Engine: req.Engine, NoCache: true}, time.Now())
		return j.key
	}

	t.Run("solo", func(t *testing.T) {
		s := New(testData(), "v1", Options{Workers: 1})
		defer s.Close()
		boom := Request{QueryID: "q2.1", Engine: queries.EngineCPU}
		bad := key(s, boom)
		release := make(chan struct{})
		s.execHook = func(k string) {
			if k == bad {
				<-release
				panic("injected execution panic")
			}
		}
		followed := make(chan struct{}, 1)
		s.flightHook = func() { followed <- struct{}{} }
		leader, err := s.Submit(ctx, boom)
		if err != nil {
			t.Fatal(err)
		}
		follower, err := s.Submit(ctx, boom)
		if err != nil {
			t.Fatal(err)
		}
		<-followed
		close(release)
		for name, ch := range map[string]<-chan Response{"leader": leader, "follower": follower} {
			if resp := <-ch; !errors.Is(resp.Err, ErrIncomplete) || resp.Answer != nil {
				t.Errorf("%s: err %v, want ErrIncomplete and no answer", name, resp.Err)
			}
		}
		if resp, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU}); err != nil || resp.Result == nil {
			t.Fatalf("next request after the panic: %v", err)
		}
		// Nothing was cached: the request executes, and panics, again.
		if _, err := s.Do(ctx, boom); !errors.Is(err, ErrIncomplete) {
			t.Fatalf("re-running the panicking request: err %v, want ErrIncomplete", err)
		}
	})

	t.Run("batch member", func(t *testing.T) {
		s := New(testData(), "v1", Options{Workers: 1, QueueDepth: 16, MaxBatch: 8})
		defer s.Close()
		ids := []string{"q1.1", "q1.2", "q1.3"}
		mk := func(id string) Request { return Request{QueryID: id, Engine: queries.EngineCPU} }
		bad := key(s, mk("q1.2"))
		started := make(chan string, 8)
		release := make(chan struct{})
		s.execHook = func(k string) {
			started <- k
			<-release
			if k == bad {
				panic("injected batch-member panic")
			}
		}
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
			t.Fatalf("blocker: %v", resp.Err)
		}
		for i, ch := range chans {
			if resp := <-ch; !errors.Is(resp.Err, ErrIncomplete) {
				t.Errorf("%s: err %v, want ErrIncomplete for every member of the panicked batch", ids[i], resp.Err)
			}
		}
		resp, err := s.Do(ctx, mk("q4.1"))
		if err != nil || resp.Result == nil {
			t.Fatalf("next request after the panic: %v", err)
		}
		if st := s.Stats(); st.Errors != int64(len(ids)) {
			t.Errorf("stats: %d errors, want %d (the batch)", st.Errors, len(ids))
		}
	})
}
