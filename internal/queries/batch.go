package queries

import (
	"errors"
	"fmt"
	"slices"
	"time"

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
	// MergeBytes, MergeSeconds — deep-equal to it: every executor of the
	// member, on any placement, is priced from its seat in the shared pass
	// (see RunBatchScheduled).
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
// (BatchMember.ScanBytes, sum-exact). scheduleOf places each member, and
// every assignment of every member's schedule — a single engine, a fleet
// device, a hybrid arm — is seated in that one pass: its executor prices its
// seat, and RunScheduled's merge, finalize and sort run over the seats
// exactly as over a solo pass. A batch scans once, whatever the placement.
//
// A member's ScheduledResult deep-equals its solo RunScheduled — Result.Seconds
// is exactly its solo seconds — while ShareSeconds carries the discounted
// split, summing exactly to BatchResult.Seconds; a batch of one is identical
// to the solo run.
//
// Every member must be compiled against one dataset and scheduled over the
// shared pass's extent: a schedule with a different morsel count, fact
// encoding, pruning mask or plan is rejected with an error naming the
// member (fleet and hybrid schedules raise small partition counts, so the
// caller passes opts with the count already raised). The resident set is
// a function of the encoding and opts.DeviceCacheBytes, so a member's
// transfers price exactly as solo.
func RunBatchScheduled(plans []*Plan, opts RunOptions, scheduleOf func(*Plan) (sched.Schedule, error)) (*BatchResult, error) {
	if len(plans) == 0 {
		return nil, errors.New("queries: empty batch")
	}
	// Place and check every member before anything scans: a seat is only
	// valid for the extent it was scanned over.
	scheds := make([]sched.Schedule, len(plans))
	for i, p := range plans {
		if p.ds != plans[0].ds {
			return nil, fmt.Errorf("queries: batch member %d compiled against a different dataset", i)
		}
		s, err := scheduleOf(p)
		if err != nil {
			return nil, err
		}
		if err := sameExtent(s, scanMember{p: p, ms: p.morselRun(opts)}); err != nil {
			return nil, fmt.Errorf("queries: batch member %d (%s) %w", i, p.Query.ID, err)
		}
		scheds[i] = s
	}

	seats, union64, err := seatSchedules(scheds)
	if err != nil {
		return nil, err
	}
	out := &BatchResult{}
	mine := make([][]scanSeat, len(plans))
	rows := make([]int64, len(plans))
	soloLineBytes := make([]int64, len(plans))
	for i, s := range scheds {
		mine[i], seats = seats[:len(s.Assignments)], seats[len(s.Assignments):]
		for _, seat := range mine[i] {
			if seat.st == nil {
				continue // idle
			}
			for _, v := range seat.st.lines64 {
				soloLineBytes[i] += v * 64
			}
			rows[i] += seat.st.rows
		}
		out.SoloScanBytes += soloLineBytes[i]
	}

	// Per-column weights in member order, apportioned over the union count.
	// A member's lines are its seats' sums, which equal its solo pass's
	// exactly (tiles are line-aligned). A pass serving one schedule keeps no
	// union: its seats' tiles are disjoint, so it streams the member's lines.
	memberLineBytes := soloLineBytes
	out.SharedScanBytes = out.SoloScanBytes
	if union64 != nil {
		memberLineBytes, out.SharedScanBytes = make([]int64, len(plans)), 0
	}
	for c, total := range union64 {
		out.SharedScanBytes += total * 64
		weights := make([]int64, len(plans))
		for i := range plans {
			for _, seat := range mine[i] {
				if seat.st != nil {
					weights[i] += seat.st.lines64[c]
				}
			}
		}
		share := apportion(total, weights)
		for i := range plans {
			memberLineBytes[i] += share[i] * 64
		}
	}

	var memberSpans []*trace.Span
	for i, p := range plans {
		sr := p.runSeated(scheds[i], mine[i], time.Now())

		ratio := 1.0
		if soloLineBytes[i] > 0 {
			ratio = float64(memberLineBytes[i]) / float64(soloLineBytes[i])
		}
		m := &BatchMember{
			Query:           p.Query,
			ScheduledResult: sr,
			ShareSeconds:    sr.Result.Seconds * ratio,
			ScanBytes:       memberLineBytes[i],
			SoloScanBytes:   soloLineBytes[i],
		}
		out.Seconds += m.ShareSeconds
		if opts.Trace && sr.Trace != nil {
			m.Trace = &trace.Span{
				Name:     p.Query.ID,
				Phase:    trace.PhaseBatchMember,
				Sim:      m.ShareSeconds,
				Bytes:    m.ScanBytes,
				Rows:     rows[i],
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
			Morsels:  scheds[0].Morsels,
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
// packages (hand-built schedules) expose no extent and price no seat, so
// they are refused too.
func sameExtent(s sched.Schedule, m scanMember) error {
	if s.Morsels != len(m.ms.morsels) {
		return fmt.Errorf("is scheduled over %d morsels, the shared pass has %d", s.Morsels, len(m.ms.morsels))
	}
	if s.Packed != (m.ms.packed != nil) {
		return fmt.Errorf("is scheduled with packed=%v, the shared pass scans packed=%v", s.Packed, m.ms.packed != nil)
	}
	for ai := range s.Assignments {
		x, ok := s.Assignments[ai].Executor.(seatPricer)
		if !ok {
			return fmt.Errorf("has executor %T, which prices no scan", s.Assignments[ai].Executor)
		}
		switch p, ms := x.extent(); {
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

// RunBatch is RunBatchScheduled with every member on the single engine e —
// the batch counterpart of Plan.Run.
func RunBatch(plans []*Plan, e Engine, opts RunOptions) (*BatchResult, error) {
	return RunBatchScheduled(plans, opts, func(p *Plan) (sched.Schedule, error) {
		return p.ScheduleEngine(e, opts), nil
	})
}
