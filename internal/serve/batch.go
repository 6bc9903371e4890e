package serve

import (
	"time"

	"crystal/internal/fleet"
	"crystal/internal/planner"
	"crystal/internal/queries"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// formBatch drains up to MaxBatch-1 pending jobs that can share the
// leader's scan: resolved against the same dataset snapshot, with the same
// normalized shape (engine, placement, fleet, morsel count and encoding —
// everything that changes the morsel map or where it runs), and a
// fact-column footprint overlapping the leader's bound query
// (queries.Compatible). Deadline-expired jobs found during the scan are
// dropped with ErrExpired. Returns nil when batching is disabled, the
// leader is unbatchable, or no peer qualifies — the caller then executes
// solo. Every queued job is a miss its caller already resolved, and two
// identical requests never both queue (the second follows the first's
// flight), so a batch holds neither cached nor duplicate work.
func (s *Service) formBatch(leader *job) []*job {
	if s.opts.MaxBatch <= 1 || !leader.batchable || s.queue.len() == 0 {
		return nil
	}
	now := time.Now()
	peers, dropped := s.queue.drainMatching(s.opts.MaxBatch-1, func(p *job) int {
		switch {
		case p.expired(now):
			return drainDrop
		case p.batchable && p.snap == leader.snap && p.shape == leader.shape && queries.Compatible(&leader.q, &p.q):
			return drainTake
		}
		return drainKeep
	})
	if s.slots != nil {
		// Blocking mode: every queued job holds one admission slot its
		// popping worker would have released. Release the slots of the jobs
		// this drain removed.
		for i := 0; i < len(peers)+len(dropped); i++ {
			<-s.slots
		}
	}
	for _, e := range dropped {
		s.drop(e, ErrExpired)
	}
	return peers
}

// executeBatch runs the leader and its drained peers as one shared-scan
// batch on the leader's worker goroutine. Each member is a job its caller
// resolved and, when coalesceable, the leader of its own flight; the batch
// shares the plan cache, pays Options.ExecDelay once for the whole batch,
// and completes every member exactly as a solo execution would (complete:
// its answer stored under its solo result key, its flight released, its
// stats recorded), reporting the same rows and simulated seconds its solo
// run would have produced (queries.RunBatchScheduled's row-identity
// invariant) plus the Batched telemetry.
func (s *Service) executeBatch(leader *job, leaderWait time.Duration, peers []*job) {
	start := time.Now()
	jobs := append([]*job{leader}, peers...)
	resps := make([]Response, len(jobs))
	plans := make([]*queries.Plan, len(jobs))
	qs := make([]queries.Query, len(jobs))
	planWalls := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		wait := leaderWait
		if i > 0 {
			wait = start.Sub(j.enqueued)
		}
		resps[i] = Response{Request: j.req, Version: j.snap.version, Query: j.q, QueueWait: wait}
	}
	defer func() {
		for i, j := range jobs {
			s.complete(j, &resps[i])
		}
	}()
	fail := func(err error) {
		for i := range resps {
			resps[i].Err = err
		}
	}

	// Every member resolved against the leader's snapshot and shares its
	// shape (formBatch's rule), so the leader's route serves the whole batch.
	sn, sh := leader.snap, leader.shape
	for i, j := range jobs {
		if s.execHook != nil {
			s.execHook(j.key)
		}
		plans[i], resps[i].PlanCached, planWalls[i] = s.plan(sn, j.q, j.canon)
		qs[i] = j.q
	}
	rt, err := s.route(sn, sh, func(fl fleet.Spec, packed *ssb.PackedFact) (string, error) {
		choice, _, err := planner.ChooseBatchPlacement(fl, sn.ds, qs, plans[0].Morsels(sh.Partitions), packed)
		return choice, err
	})
	if err != nil {
		fail(err)
		return
	}
	if s.opts.ExecDelay > 0 {
		// Once per batch, not per member: the wall-clock counterpart of the
		// shared scan, and where batching's goodput win comes from under a
		// simulated slow backend.
		time.Sleep(s.opts.ExecDelay)
	}
	var cpuFrac float64 // the same for every member: they share the shape
	br, err := queries.RunBatchScheduled(plans, rt.opts, func(p *queries.Plan) (sched.Schedule, error) {
		sc, frac, err := p.Schedule(rt.shape, rt.opts)
		cpuFrac = frac
		return sc, err
	})
	if err != nil {
		fail(err)
		return
	}

	s.recordBatch(br.SharedScanBytes, br.SoloScanBytes)
	for i, j := range jobs {
		m, resp := br.Members[i], &resps[i]
		resp.Answer = rt.report(m.ScheduledResult, cpuFrac)
		resp.Batched = true
		resp.BatchSize = len(jobs)
		resp.BatchShareSeconds = m.ShareSeconds
		resp.Wall = j.bindWall + time.Since(start)
		if s.recorder != nil {
			// The run span is the batch span: every member's trace shows the
			// shared scan it rode, with its own batch-member child inside.
			s.finishTrace(resp, j.bindWall, planWalls[i], br.Trace)
		}
	}
}
