package queries

import (
	"errors"
	"fmt"
	"slices"

	"crystal/internal/sched"
	"crystal/internal/trace"
)

// ScanFootprint returns the fact columns a query's scan streams — its
// referenced fact columns, sorted. Two queries whose footprints overlap can
// share a scan: the shared columns stream through the device once and both
// pipelines consume the same tiles.
func ScanFootprint(q *Query) []string { return q.ReferencedFactColumns() }

// Compatible reports whether two queries are scan-compatible: their fact
// column footprints overlap, so batching them onto one shared morsel scan
// saves column traffic. Callers must additionally ensure both queries bind
// against the same dataset generation and fact encoding (plain vs packed) —
// the serving layer's batch former checks those request-level fields.
func Compatible(a, b *Query) bool {
	bs := map[string]bool{}
	for _, c := range ScanFootprint(b) {
		bs[c] = true
	}
	for _, c := range ScanFootprint(a) {
		if bs[c] {
			return true
		}
	}
	return false
}

// apportion splits total across members proportionally to weights using the
// largest-remainder method: the shares are integers, sum to total exactly,
// and never exceed the member's own weight when total <= sum(weights). Ties
// break toward the lower index, so the split is deterministic.
func apportion(total int64, weights []int64) []int64 {
	out := make([]int64, len(weights))
	var sumW int64
	for _, w := range weights {
		sumW += w
	}
	if total == 0 || len(weights) == 0 {
		return out
	}
	if sumW == 0 {
		// Unreachable for scan traffic (a counted line implies a toucher),
		// but keep the sum-exact contract for arbitrary inputs.
		out[0] = total
		return out
	}
	var assigned int64
	rems := make([]int64, len(weights))
	for i, w := range weights {
		out[i] = total * w / sumW
		rems[i] = total * w % sumW
		assigned += out[i]
	}
	for leftover := total - assigned; leftover > 0; leftover-- {
		best := -1
		for i := range rems {
			if rems[i] > 0 && (best < 0 || rems[i] > rems[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		rems[best] = 0
	}
	return out
}

// BatchMember is one query's slice of a shared-scan batch execution.
type BatchMember struct {
	// Query is the member's compiled query.
	Query Query
	// ScheduledResult is what a solo RunScheduled of the member's schedule
	// reports — rows, Result.Seconds, Morsels, TransferBytes, ..., Executors,
	// MergeBytes, MergeSeconds — deep-equal to it. A CPU-family member is
	// priced from its seat in the shared pass (see RunBatchScheduled); a
	// member that still executes carries its own run's telemetry with the
	// rows of the shared scan, byte-identical by construction (tile-aligned
	// chunks make the per-member statistics and aggregates exactly additive).
	*ScheduledResult
	// ShareSeconds is the member's share of the batch's simulated time:
	// its solo seconds discounted by the fraction of its scan lines the
	// apportionment charged it after shared lines were split. Shares sum
	// exactly to BatchResult.Seconds, and a singleton batch's share equals
	// its solo seconds exactly.
	ShareSeconds float64
	// ScanBytes is the member's apportioned slice of the shared scan
	// traffic and SoloScanBytes what its solo scan would have streamed;
	// per batch, sum(ScanBytes) == SharedScanBytes exactly.
	ScanBytes     int64
	SoloScanBytes int64
	// Trace is the member's span (Phase batch-member, Sim == ShareSeconds)
	// wrapping its solo run span (ScheduledResult.Trace); nil unless
	// opts.Trace asked for one.
	Trace *trace.Span
}

// BatchResult is the outcome of one shared-scan batch execution.
type BatchResult struct {
	// Members holds one entry per plan, in input order.
	Members []*BatchMember
	// Seconds is the batch's simulated time: the sum of the members'
	// ShareSeconds (exact by construction). At batch size >= 2 with
	// overlapping footprints it is strictly less than the sum of the
	// members' solo seconds — the shared-scan win.
	Seconds float64
	// SharedScanBytes counts each 64 B line of each fact column once when
	// any member touched it — what the shared scan actually streams.
	// SoloScanBytes is the sum of the members' solo line bytes; the gap is
	// the traffic the batch deduplicated.
	SharedScanBytes int64
	SoloScanBytes   int64
	// Trace is the batch span (Phase batch, Sim == Seconds) with one
	// batch-member child per member; nil unless opts.Trace asked for one.
	Trace *trace.Span
}

// RunBatchScheduled executes the compiled plans as one shared-scan batch:
// every member's filter/join/aggregate pipeline evaluates per tile inside
// one scanKernel pass over the union of the members' live morsels (opts
// resolves the pass's morsel map and fact encoding), so shared column lines
// stream once and the saved traffic is split across members
// (BatchMember.ScanBytes, sum-exact). scheduleOf places each member, and the
// placement decides what the pass is to it:
//
//   - A single-engine schedule on a CPU-family engine (CPU, Hyper, MonetDB,
//     Omnisci — engines that are the scan plus arithmetic over its
//     statistics) is seated: its executor is handed the member's slice of
//     the shared pass and RunScheduled prices, merges, finalizes and sorts
//     it exactly as it does a solo scan. The batch scans once.
//   - GPU, coprocessor, fleet and hybrid schedules execute on their own
//     executors, which restrict the morsel set or meter per tile; their rows
//     are then taken from the shared scan.
//
// Either way a member's ScheduledResult deep-equals its solo RunScheduled —
// Result.Seconds is exactly its solo seconds — while ShareSeconds carries
// the discounted split, summing exactly to BatchResult.Seconds; a batch of
// one is identical to the solo run.
//
// Every member must be compiled against one dataset and scheduled over the
// shared pass's extent: a schedule with a different morsel count, fact
// encoding, pruning mask or plan is rejected with an error naming the
// member (fleet and hybrid schedules raise small partition counts, so the
// caller passes opts with the count already raised). Residency caching is
// not consulted for the shared pass; callers batch only shapes whose solo
// seconds do not depend on residency state.
func RunBatchScheduled(plans []*Plan, opts RunOptions, scheduleOf func(*Plan) (sched.Schedule, error)) (*BatchResult, error) {
	if len(plans) == 0 {
		return nil, errors.New("queries: empty batch")
	}
	// Place and check every member before anything scans: a seat is only
	// valid for the extent it was scanned over.
	members := make([]scanMember, len(plans))
	scheds := make([]sched.Schedule, len(plans))
	for i, p := range plans {
		if p.ds != plans[0].ds {
			return nil, fmt.Errorf("queries: batch member %d compiled against a different dataset", i)
		}
		members[i] = scanMember{p: p, ms: p.morselRun(opts)}
		s, err := scheduleOf(p)
		if err != nil {
			return nil, err
		}
		if err := sameExtent(s, members[i]); err != nil {
			return nil, fmt.Errorf("queries: batch member %d (%s) %w", i, p.Query.ID, err)
		}
		scheds[i] = s
	}
	morsels := len(members[0].ms.morsels)

	raws, sts, union64 := scanKernel(members)

	out := &BatchResult{}
	for _, v := range union64 {
		out.SharedScanBytes += v * 64
	}

	// Per-column weights in member order, apportioned over the union count.
	memberLineBytes := make([]int64, len(plans))
	soloLineBytes := make([]int64, len(plans))
	for c, total := range union64 {
		weights := make([]int64, len(plans))
		for i := range plans {
			weights[i] = sts[i].lines64[c]
		}
		share := apportion(total, weights)
		for i := range plans {
			memberLineBytes[i] += share[i] * 64
		}
	}
	for i := range plans {
		for _, v := range sts[i].lines64 {
			soloLineBytes[i] += v * 64
		}
		out.SoloScanBytes += soloLineBytes[i]
	}

	var memberSpans []*trace.Span
	for i, p := range plans {
		q, s := p.Query, scheds[i]
		seated := seatMember(&s, &scanSeat{res: raws[i], st: sts[i]})
		sr, err := p.RunScheduled(s)
		if err != nil {
			return nil, err
		}
		if !seated {
			// The member executed on its own schedule: take its rows from the
			// shared scan. ORDER BY re-runs on the schedule's hardware exactly
			// as the solo run priced it (the sort seconds are already in sr).
			raw := raws[i]
			finalizeGroups(&q, p.agg, raw.accs, raw)
			sr.Result.Groups, sr.Result.Aggs = raw.Groups, raw.Aggs
			if len(q.OrderBy) > 0 {
				sr.Result.Ordered = p.executeSort(s, resultRows(&q, raw)).rows
			}
		}

		ratio := 1.0
		if soloLineBytes[i] > 0 {
			ratio = float64(memberLineBytes[i]) / float64(soloLineBytes[i])
		}
		m := &BatchMember{
			Query:           q,
			ScheduledResult: sr,
			ShareSeconds:    sr.Result.Seconds * ratio,
			ScanBytes:       memberLineBytes[i],
			SoloScanBytes:   soloLineBytes[i],
		}
		out.Seconds += m.ShareSeconds
		if opts.Trace && sr.Trace != nil {
			m.Trace = &trace.Span{
				Name:     q.ID,
				Phase:    trace.PhaseBatchMember,
				Sim:      m.ShareSeconds,
				Bytes:    m.ScanBytes,
				Rows:     sts[i].rows,
				Children: []*trace.Span{sr.Trace},
			}
			memberSpans = append(memberSpans, m.Trace)
		}
		out.Members = append(out.Members, m)
	}
	if opts.Trace && len(memberSpans) == len(plans) {
		out.Trace = &trace.Span{
			Phase:    trace.PhaseBatch,
			Sim:      out.Seconds,
			Bytes:    out.SharedScanBytes,
			Morsels:  morsels,
			Children: memberSpans,
		}
	}
	return out, nil
}

// sameExtent checks that schedule s was built for member m over the run
// extent the shared pass scanned it on — the morsel count, the fact encoding,
// the per-morsel pruning mask and the plan itself. Solo seconds for one
// extent must never be paired with scan traffic apportioned from another, and
// a seat is only valid for the extent it was scanned over. Executors of other
// packages (hand-built schedules) expose no extent; the schedule-level fields
// are all that can be checked for them, and they are never seated.
func sameExtent(s sched.Schedule, m scanMember) error {
	if s.Morsels != len(m.ms.morsels) {
		return fmt.Errorf("is scheduled over %d morsels, the shared pass has %d", s.Morsels, len(m.ms.morsels))
	}
	if s.Packed != (m.ms.packed != nil) {
		return fmt.Errorf("is scheduled with packed=%v, the shared pass scans packed=%v", s.Packed, m.ms.packed != nil)
	}
	for ai := range s.Assignments {
		var p *Plan
		var ms *morselRun
		switch x := s.Assignments[ai].Executor.(type) {
		case engineExecutor:
			p, ms = x.p, x.ms
		case *gpuDeviceExecutor:
			p, ms = x.p, x.ms
		default:
			continue
		}
		switch {
		case ms.packed != m.ms.packed:
			return errors.New("is scheduled over a different packed encoding than the shared pass scans")
		case !slices.Equal(ms.pruned, m.ms.pruned):
			return errors.New("is scheduled over a different pruning mask than the shared pass")
		case p != m.p:
			return errors.New("is scheduled for a different plan than the one seated in the shared pass")
		}
	}
	return nil
}

// seatMember hands a member's slice of the shared pass to its schedule when
// the schedule is one the pass can stand in for: a single engineExecutor
// assignment covering every morsel on a CPU-family engine, whose Execute is
// scan + price(stats). The caller has verified the extent (sameExtent) and
// gives the seat up: RunScheduled adopts its accumulator vectors. Every other
// shape — GPU and coprocessor engines, fleets, hybrid splits — is left to
// execute and reports false.
func seatMember(s *sched.Schedule, seat *scanSeat) bool {
	if len(s.Assignments) != 1 || len(s.Assignments[0].Morsels) != s.Morsels {
		return false
	}
	x, ok := s.Assignments[0].Executor.(engineExecutor)
	if !ok || !cpuFamily(x.e) {
		return false
	}
	x.seat = seat
	a := s.Assignments[0]
	a.Executor = x
	s.Assignments = []sched.Assignment{a} // the builder's slice is not ours to edit
	return true
}

// RunBatch is RunBatchScheduled with every member on the single engine e —
// the batch counterpart of Plan.Run.
func RunBatch(plans []*Plan, e Engine, opts RunOptions) (*BatchResult, error) {
	return RunBatchScheduled(plans, opts, func(p *Plan) (sched.Schedule, error) {
		return p.ScheduleEngine(e, opts), nil
	})
}
