package serve

import (
	"time"

	"crystal/internal/fleet"
	"crystal/internal/planner"
	"crystal/internal/queries"
	"crystal/internal/ssb"
)

// batchShape is the request-level compatibility key for shared-scan
// batching: two queued requests may share a scan only when every field that
// changes the morsel map, the fact encoding or the execution placement
// agrees. Query identity is deliberately absent — that is the footprint
// check (queries.Compatible) the batch former applies after binding.
type batchShape struct {
	engine       queries.Engine
	placement    string
	interconnect string
	partitions   int
	gpus         int
	packed       bool
}

// batchKey reduces a request to its batchShape, or reports it unbatchable.
// Requests that fail to normalize are left for the solo path to report;
// NoCache requests (explicitly standalone) and residency-dependent shapes
// (coprocessor or constrained-fleet packed runs, whose solo seconds depend
// on device-cache state the batch path never consults) are never batched.
func (s *Service) batchKey(req Request) (batchShape, bool) {
	norm, _, err := normalize(req)
	if err != nil || norm.NoCache || s.coprocResidency(norm) || s.fleetResidency(norm) {
		return batchShape{}, false
	}
	return batchShape{
		engine:       norm.Engine,
		placement:    norm.Placement,
		interconnect: norm.Interconnect,
		partitions:   norm.Partitions,
		gpus:         norm.GPUs,
		packed:       norm.Packed,
	}, true
}

// resultCached reports whether the result-cache entry for req at generation
// gen is already present. Cache-resident work gains nothing from a shared
// scan — a solo pickup replays the stored rows without executing — so the
// batch former leaves it on the solo path: a cached leader executes (and
// replays) alone, a cached drained peer goes back to its queue position.
func (s *Service) resultCached(ds *ssb.Dataset, gen uint64, canon string, req Request) bool {
	norm, _, err := normalize(req)
	if err != nil {
		return false
	}
	key := resultKey(gen, canon, effective(norm, ds.Lineorder.Rows()))
	s.cacheMu.Lock()
	_, hit := s.results.get(key)
	s.cacheMu.Unlock()
	return hit
}

// formBatch drains up to MaxBatch-1 pending requests that can share the
// leader's scan: same batchShape (engine, partitions, packed mode, fleet
// shape) and a fact-column footprint overlapping the leader's bound query.
// Deadline-expired peers found during the scan are completed with ErrExpired;
// shape-matched peers whose footprints turn out disjoint go back to their
// original queue position. Returns nil when batching is disabled, the leader
// is unbatchable, or no peer qualifies — the caller then executes solo.
func (s *Service) formBatch(leader *job) []*job {
	if s.opts.MaxBatch <= 1 || s.queue.len() == 0 {
		return nil
	}
	shape, ok := s.batchKey(leader.req)
	if !ok {
		return nil
	}
	s.mu.RLock()
	ds, gen := s.ds, s.gen
	s.mu.RUnlock()
	lq, lcanon, err := s.resolve(ds, gen, leader.req)
	if err != nil {
		return nil // the solo path reports the resolution error
	}
	if s.resultCached(ds, gen, lcanon, leader.req) {
		return nil // the solo path replays it from the result cache
	}
	// The classifier runs under the queue lock: shape matching is pure
	// parsing, so binding (which takes cache locks) waits until the drain
	// returns.
	now := time.Now()
	taken, dropped := s.queue.drainMatching(s.opts.MaxBatch-1, func(p *job) int {
		if p.req.Deadline > 0 && now.Sub(p.enqueued) >= p.req.Deadline {
			return drainDrop
		}
		if ps, ok := s.batchKey(p.req); ok && ps == shape {
			return drainTake
		}
		return drainKeep
	})
	for _, e := range dropped {
		s.recordExpired()
		e.done <- Response{Request: e.req, QueueWait: time.Since(e.enqueued), Err: ErrExpired}
	}
	// Bind each candidate and keep those whose footprints overlap the
	// leader's and whose results are not already cached; the rest are
	// re-pushed with their original sequence numbers, restoring their FIFO
	// position (a cached peer replays instantly when a worker pops it solo).
	var peers, back []*job
	for _, p := range taken {
		pq, pcanon, rerr := s.resolve(ds, gen, p.req)
		if rerr == nil && queries.Compatible(&lq, &pq) && !s.resultCached(ds, gen, pcanon, p.req) {
			peers = append(peers, p)
		} else {
			back = append(back, p)
		}
	}
	s.queue.requeue(back)
	if s.slots != nil {
		// Blocking mode: every queued job holds one admission slot its
		// popping worker would have released. Release the slots of the jobs
		// this drain permanently removed (batched peers and expired drops);
		// re-queued jobs keep theirs.
		for i := 0; i < len(peers)+len(dropped); i++ {
			<-s.slots
		}
	}
	return peers
}

// executeBatch runs the leader and its drained peers as one shared-scan
// batch on the leader's worker goroutine. The batch bypasses result-cache
// lookup and single-flight coalescing — it is a multi-query unit the per-key
// machinery cannot represent, and formBatch already diverted cache-resident
// work to the solo replay path — but shares the bind and plan caches, pays
// Options.ExecDelay once for the whole batch, publishes each member's result
// under its solo result key for later replays, and reports each member with
// the same rows and simulated seconds its solo run would have produced
// (queries.RunBatchScheduled's row-identity invariant), plus the Batched
// telemetry.
func (s *Service) executeBatch(leader *job, leaderWait time.Duration, peers []*job) {
	start := time.Now()
	jobs := append([]*job{leader}, peers...)
	waits := make([]time.Duration, len(jobs))
	waits[0] = leaderWait
	for i, p := range peers {
		waits[i+1] = time.Since(p.enqueued)
	}

	s.mu.RLock()
	ds, version, gen := s.ds, s.version, s.gen
	s.mu.RUnlock()

	fail := func(i int, err error) {
		s.recordError()
		jobs[i].done <- Response{Request: jobs[i].req, Version: version, QueueWait: waits[i], Err: err}
	}

	// Normalize, bind and compile each member against the snapshot through
	// the shared bind/plan caches. All members matched one batchShape, so
	// their normalized fields — and the effective partition count, which
	// depends only on the snapshot and the shared count — agree. A member
	// that fails to bind (possible if a SetDataset raced in since the batch
	// formed) fails alone; the rest still batch.
	type liveMember struct {
		idx        int
		req        Request
		q          queries.Query
		canon      string
		bindWall   time.Duration
		planWall   time.Duration
		planCached bool
	}
	var (
		live  []liveMember
		plans []*queries.Plan
		qs    []queries.Query
		link  fleet.Interconnect
	)
	for i, j := range jobs {
		norm, lk, err := normalize(j.req)
		if err != nil {
			fail(i, err)
			continue
		}
		m := liveMember{idx: i, req: effective(norm, ds.Lineorder.Rows())}
		bindStart := time.Now()
		m.q, m.canon, err = s.resolve(ds, gen, m.req)
		m.bindWall = time.Since(bindStart)
		if err != nil {
			fail(i, err)
			continue
		}
		var plan *queries.Plan
		plan, m.planCached, m.planWall = s.plan(ds, gen, m.q, m.canon)
		link = lk
		live, plans, qs = append(live, m), append(plans, plan), append(qs, m.q)
	}
	if len(live) == 0 {
		return
	}
	failLive := func(err error) {
		for _, m := range live {
			fail(m.idx, err)
		}
	}

	req0 := live[0].req
	rt, err := s.route(ds, gen, req0, link, func(fl fleet.Spec, packed *ssb.PackedFact) (planner.Placement, error) {
		choice, _, err := planner.ChooseBatchPlacement(fl, ds, qs, plans[0].Morsels(req0.Partitions), packed)
		return choice, err
	})
	if err != nil {
		failLive(err)
		return
	}
	if s.opts.ExecDelay > 0 {
		// Once per batch, not per member: the wall-clock counterpart of the
		// shared scan, and where batching's goodput win comes from under a
		// simulated slow backend.
		time.Sleep(s.opts.ExecDelay)
	}
	br, err := queries.RunBatchScheduled(plans, rt.opts, rt.schedule)
	if err != nil {
		failLive(err)
		return
	}

	s.recordBatch(br.SharedScanBytes, br.SoloScanBytes)
	for li, lm := range live {
		m := br.Members[li]
		resp := Response{
			Answer:            rt.report(m.ScheduledResult),
			Request:           lm.req,
			QueueWait:         waits[lm.idx],
			Version:           version,
			Query:             lm.q,
			PlanCached:        lm.planCached,
			Batched:           true,
			BatchSize:         len(live),
			BatchShareSeconds: m.ShareSeconds,
			Wall:              time.Since(start),
		}
		if s.recorder != nil {
			// The run span is the batch span: every member's trace shows the
			// shared scan it rode, with its own batch-member child inside.
			s.finishTrace(&resp, start, waits[lm.idx], lm.bindWall, lm.planWall, br.Trace)
		}

		// Publish the member's answer under its solo result key, exactly as
		// execute would have: rows and simulated seconds are identical to
		// the solo run and batch members are never residency-dependent
		// shapes, so the entry replays deterministically.
		s.cacheMu.Lock()
		s.results.put(resultKey(gen, lm.canon, lm.req), resp.Answer)
		s.cacheMu.Unlock()

		s.recordStats(&resp)
		jobs[lm.idx].done <- resp
	}
}
