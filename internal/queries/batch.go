package queries

import (
	"errors"
	"fmt"

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
	// ScheduledResult is the outcome of the member's own solo schedule — the
	// execution telemetry (Result.Seconds, Morsels, TransferBytes, ...,
	// Executors, MergeBytes, MergeSeconds) a solo run of the same request
	// reports — with Result's rows taken from the shared scan, which are
	// byte-identical to the solo rows by construction (tile-aligned chunks
	// make the per-member statistics and aggregates exactly additive).
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
// (BatchMember.ScanBytes, sum-exact). scheduleOf places each member: its own
// solo schedule prices it, so a member's Result.Seconds is exactly its solo
// seconds while ShareSeconds carries the discounted split, summing exactly
// to BatchResult.Seconds. Each member's rows are byte-identical to its solo
// RunScheduled, and a batch of one is identical to the solo run.
//
// Every member must be compiled against one dataset and scheduled over the
// shared pass's morsel map; a schedule with a different morsel count is
// rejected (fleet and hybrid schedules raise small partition counts, so the
// caller passes opts with the count already raised). Residency caching is
// not consulted for the shared pass; callers batch only shapes whose solo
// seconds do not depend on residency state.
func RunBatchScheduled(plans []*Plan, opts RunOptions, scheduleOf func(*Plan) (sched.Schedule, error)) (*BatchResult, error) {
	if len(plans) == 0 {
		return nil, errors.New("queries: empty batch")
	}
	members := make([]scanMember, len(plans))
	for i, p := range plans {
		if p.ds != plans[0].ds {
			return nil, fmt.Errorf("queries: batch member %d compiled against a different dataset", i)
		}
		members[i] = scanMember{p: p, ms: p.morselRun(opts)}
	}
	morsels := len(members[0].ms.morsels)

	raws, sts, union64, _ := scanKernel(members)

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
		q := p.Query
		s, err := scheduleOf(p)
		if err != nil {
			return nil, err
		}
		if s.Morsels != morsels {
			return nil, fmt.Errorf("queries: batch member %d is scheduled over %d morsels, the shared pass has %d",
				i, s.Morsels, morsels)
		}
		sr, err := p.RunScheduled(s)
		if err != nil {
			return nil, err
		}
		// Finalize the shared scan's raw aggregates into the member's rows;
		// ORDER BY runs on the member's own schedule hardware, exactly as the
		// solo run prices it (the sort seconds are already inside sr).
		raw := raws[i]
		finalizeGroups(&q, newAggState(&q), raw.accs, raw)
		sr.Result.Groups, sr.Result.Aggs = raw.Groups, raw.Aggs
		if len(q.OrderBy) > 0 {
			sr.Result.Ordered = p.executeSort(s, resultRows(&q, raw)).rows
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

// RunBatch is RunBatchScheduled with every member on the single engine e —
// the batch counterpart of Plan.Run.
func RunBatch(plans []*Plan, e Engine, opts RunOptions) (*BatchResult, error) {
	return RunBatchScheduled(plans, opts, func(p *Plan) (sched.Schedule, error) {
		return p.ScheduleEngine(e, opts), nil
	})
}
