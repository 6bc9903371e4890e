package main

import (
	"fmt"
	"math/rand"
	"strings"

	"crystal/internal/queries"
	"crystal/internal/serve"
	sqlfe "crystal/internal/sql"
	"crystal/internal/ssb"
)

// The harness pins the execution pool, the morsel helpers and the client
// count to the reference box's two cores whatever machine it runs on, so a
// number recorded on a larger machine still measures the same concurrency.
const pinned = 2

// template is one distinct request a workload issues.
type template struct {
	req serve.Request
	// class labels the request shape in reports ("cpu", "fleet", "adhoc"...).
	class string
}

// workload is one traffic mix. The service sees only the requests; the
// seeded stream is order[i%len(order)] into templates.
type workload struct {
	name string
	// rows is the fact-table size: the working set relative to the host's
	// caches is what separates the workloads' scan behaviour.
	rows int
	opts serve.Options
	// clients is the number of closed-loop callers: each issues its next
	// request only after the previous reply, as a dashboard or notebook does.
	clients int
	// sampleEvery thins latency sampling and full row comparison to every
	// n-th request, for a workload whose requests cost less than a check.
	sampleEvery int
	// warm bounds how many templates the set-up pass executes and checks
	// against the reference oracle (0 = all of them). It takes them from the
	// end of the template list, the part a round-robin stream reaches last,
	// so warming leaves the start of the timed phase as cold as the rest.
	warm int
	// build draws the templates and the stream from the seed.
	build func(rng *rand.Rand, ds *ssb.Dataset) ([]template, []uint32, error)
	// traffic checks, from the service's own counters, that the run was the
	// traffic the workload is named for.
	traffic func(c trafficCounts) error
}

// trafficCounts are the measured shares the traffic assertions read.
type trafficCounts struct {
	resultHitRate, planHitRate   float64
	coalescedShare, batchedShare float64
	batchSizeMean                float64
}

func baseOptions() serve.Options {
	return serve.Options{Workers: pinned, MorselHelpers: pinned}
}

// workloads returns the four traffic mixes at their reference sizes. scale
// divides every row count; the command always passes 1 and the tests pass
// a large divisor to run the same constructors in milliseconds.
func workloads(scale int) []*workload {
	rows := func(n int) int {
		if n /= scale; n < ssb.MorselAlign {
			n = ssb.MorselAlign
		}
		return n
	}
	// queued_batch: blocking admission (no shedding), batches of up to 8, a
	// result cache too small to absorb the pool — and bind and plan caches
	// large enough to hold every template, all of them warmed, so that the
	// frontend stays out of a workload that is about waiting and shared
	// scans. With the default 64 plans the pool evicts the catalog's plans,
	// and the few multi-megabyte recompiles a run then happens to draw set
	// its allocation figure; with part of the pool left cold, each statement's
	// first compile lands in the timed phase, and the allocation per request
	// rises by 5% when the host slows and the run issues fewer requests.
	queued := baseOptions()
	queued.QueueDepth = 16
	queued.MaxBatch = 8
	queued.ResultCacheSize = 8
	queued.PlanCacheSize = 512
	queued.BindCacheSize = 512
	return []*workload{
		{
			name: "scan_solo", rows: rows(1 << 20), opts: baseOptions(), clients: pinned,
			sampleEvery: 1, build: buildScanSolo,
			traffic: func(c trafficCounts) error {
				if c.planHitRate < 0.99 {
					return fmt.Errorf("plan hit rate %.4f < 0.99: plans are not staying cached", c.planHitRate)
				}
				return nil
			},
		},
		{
			name: "adhoc_cold", rows: rows(1 << 14), opts: baseOptions(), clients: pinned,
			sampleEvery: 1, warm: 128, build: buildAdhocCold,
			traffic: func(c trafficCounts) error {
				if c.resultHitRate >= 0.02 || c.planHitRate >= 0.02 {
					return fmt.Errorf("hit rates result %.4f plan %.4f, want both < 0.02: the stream is not cold",
						c.resultHitRate, c.planHitRate)
				}
				return nil
			},
		},
		{
			name: "cache_hot", rows: rows(1 << 16), opts: baseOptions(), clients: pinned,
			sampleEvery: 64, build: buildCacheHot,
			traffic: func(c trafficCounts) error {
				if c.resultHitRate < 0.999 {
					return fmt.Errorf("result hit rate %.5f < 0.999: requests are executing", c.resultHitRate)
				}
				return nil
			},
		},
		{
			// 16 callers keep 16 requests outstanding against 2 workers, so
			// queues form and the batch former has peers to drain.
			name: "queued_batch", rows: rows(1 << 18), opts: queued, clients: 16,
			sampleEvery: 1, build: buildQueuedBatch,
			traffic: func(c trafficCounts) error {
				if c.batchedShare < 0.5 || c.batchSizeMean < 3 {
					return fmt.Errorf("batched share %.3f (want >= 0.5), mean batch size %.2f (want >= 3): queues are not forming",
						c.batchedShare, c.batchSizeMean)
				}
				return nil
			},
		},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads(1) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// streamLen is the length of a generated stream; a run that outlasts it
// wraps around.
const streamLen = 1 << 16

// shuffledCycles fills a stream with seeded permutations of 0..n-1 laid end
// to end. Every window of the stream then holds the templates in equal
// shares, so two seeds differ in order and not in mix — with independent
// draws the mix itself would move the throughput from seed to seed.
func shuffledCycles(rng *rand.Rand, n, length int) []uint32 {
	out := make([]uint32, 0, length+n)
	for len(out) < length {
		for _, i := range rng.Perm(n) {
			out = append(out, uint32(i))
		}
	}
	return out[:length]
}

// scanClasses are the execution shapes scan_solo crosses with the catalog.
var scanClasses = []template{
	{class: "cpu", req: serve.Request{Placement: "cpu"}},
	{class: "gpu", req: serve.Request{Placement: "gpu"}},
	{class: "hybrid", req: serve.Request{Placement: "hybrid", Interconnect: "nvlink", Partitions: 16}},
	{class: "packed", req: serve.Request{Engine: queries.EngineCPU, Partitions: 16, Packed: true}},
	{class: "fleet", req: serve.Request{Engine: queries.EngineGPU, GPUs: 4}},
}

// orderedIDs are the catalog queries the ordered class re-issues as SQL
// with ORDER BY ... LIMIT, one per grouped flight.
var orderedIDs = []string{"q2.1", "q3.1", "q4.1"}

func buildScanSolo(rng *rand.Rand, _ *ssb.Dataset) ([]template, []uint32, error) {
	var ts []template
	for _, q := range queries.All() {
		for _, c := range scanClasses {
			t := c
			t.req.QueryID = q.ID
			t.req.NoCache = true
			ts = append(ts, t)
		}
	}
	for _, id := range orderedIDs {
		q, err := queries.ByID(id)
		if err != nil {
			return nil, nil, err
		}
		stmt := strings.TrimSuffix(q.Describe(), ";") + "\nORDER BY 1 DESC\nLIMIT 5;"
		ts = append(ts, template{class: "ordered", req: serve.Request{SQL: stmt, Placement: "gpu", NoCache: true}})
	}
	return ts, shuffledCycles(rng, len(ts), streamLen), nil
}

// coldStatements is the number of distinct statements adhoc_cold cycles
// through: a reuse distance beyond the bind (128), plan (64) and result
// (256) caches, so every request pays the whole frontend.
const coldStatements = 4096

func buildAdhocCold(rng *rand.Rand, ds *ssb.Dataset) ([]template, []uint32, error) {
	// The statements are the same for every seed and the seed sets their
	// order: they differ a hundredfold in what they allocate and simulate, and
	// a pool drawn afresh would move both means by 3-4% from seed to seed.
	stmts, err := randomStatements(rand.New(rand.NewSource(0)), ds, coldStatements)
	if err != nil {
		return nil, nil, err
	}
	rng.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	ts := make([]template, len(stmts))
	order := make([]uint32, len(stmts))
	for i, s := range stmts {
		ts[i] = template{class: "adhoc", req: serve.Request{SQL: s, Placement: "auto"}}
		order[i] = uint32(i) // round-robin: the reuse distance is the pool size
	}
	return ts, order, nil
}

// randomStatements renders n distinct seeded statements of the extended
// dialect and checks that each compiles.
func randomStatements(rng *rand.Rand, ds *ssb.Dataset, n int) ([]string, error) {
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for i := 0; len(out) < n; i++ {
		if i > 64*n {
			return nil, fmt.Errorf("generator yielded only %d distinct statements of %d", len(out), n)
		}
		q := queries.RandomQuery(rng, ds, i, queries.GenOptions{Extended: true})
		stmt := stripComment(q.Describe())
		if seen[stmt] {
			continue
		}
		if _, err := sqlfe.Compile(stmt); err != nil {
			return nil, fmt.Errorf("generated statement does not compile: %w\n%s", err, stmt)
		}
		seen[stmt] = true
		out = append(out, stmt)
	}
	return out, nil
}

// stripComment drops Describe's leading "-- id" line: the id numbers the
// draw, and two draws of one statement must count as one text.
func stripComment(stmt string) string {
	if strings.HasPrefix(stmt, "--") {
		if nl := strings.IndexByte(stmt, '\n'); nl >= 0 {
			return stmt[nl+1:]
		}
	}
	return stmt
}

// respell rewrites a Describe rendering the way a second client would type
// it: lower case outside string literals, conjuncts in reverse order, one
// line. It must bind to the same canonical form as the original.
func respell(stmt string) string {
	var head, conj, tail []string
	for _, line := range strings.Split(strings.TrimSuffix(stmt, ";"), "\n") {
		switch {
		case strings.HasPrefix(line, "  AND "):
			conj = append(conj, line)
		case len(conj) == 0:
			head = append(head, line)
		default:
			tail = append(tail, line)
		}
	}
	for i, j := 0, len(conj)-1; i < j; i, j = i+1, j-1 {
		conj[i], conj[j] = conj[j], conj[i]
	}
	joined := strings.Join(append(append(head, conj...), tail...), " ")
	var b strings.Builder
	quoted := false
	for _, c := range joined {
		if c == '\'' {
			quoted = !quoted
		}
		if !quoted && c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteRune(c)
	}
	return b.String()
}

// rangeStatements draws n distinct statements over the discount, quantity
// and extended-price columns, rendered the way Describe renders the catalog:
// q1-shaped range sums, any two of which can share a scan, and — one in
// byYear of them, when byYear > 0 — the same sum grouped by order year.
// Their results are one row or seven, so what a reply costs does not depend
// on which statements a seed happens to draw.
func rangeStatements(rng *rand.Rand, n, byYear int) []string {
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for len(out) < n {
		lo := int32(rng.Intn(9))
		q := queries.Query{ID: "range", Agg: queries.AggSumExtDisc, FactFilters: []queries.Filter{
			{Col: "discount", Lo: lo, Hi: lo + 1 + int32(rng.Intn(int(10-lo)))},
			{Col: "quantity", Lo: 1, Hi: 1 + int32(rng.Intn(49))},
		}}
		if byYear > 0 && len(out)%byYear == 0 {
			q.Joins = []queries.JoinSpec{{Dim: "date", FactFK: "orderdate", Payload: "year"}}
		}
		if stmt := stripComment(q.Describe()); !seen[stmt] {
			seen[stmt] = true
			out = append(out, stmt)
		}
	}
	return out
}

// hotStatements is the size of cache_hot's ad-hoc pool; each statement is
// issued in two spellings.
const hotStatements = 32

func buildCacheHot(rng *rand.Rand, _ *ssb.Dataset) ([]template, []uint32, error) {
	var ts []template
	for _, q := range queries.All() {
		ts = append(ts, template{class: "catalog", req: serve.Request{QueryID: q.ID, Placement: "auto"}})
	}
	catalog := len(ts)
	for _, s := range rangeStatements(rng, hotStatements, 2) {
		ts = append(ts,
			template{class: "adhoc", req: serve.Request{SQL: s, Placement: "auto"}},
			template{class: "respelled", req: serve.Request{SQL: respell(s), Placement: "auto"}})
	}
	// 70% catalog ids under Zipf(1.3) — a hot head and a long tail, the
	// popularity a dashboard fleet shows — and 30% uniform over the spellings.
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(catalog-1))
	order := make([]uint32, streamLen)
	for i := range order {
		if rng.Float64() < 0.7 {
			order[i] = uint32(zipf.Uint64())
		} else {
			order[i] = uint32(catalog + rng.Intn(len(ts)-catalog))
		}
	}
	return ts, order, nil
}

// rangePool is the number of scan-compatible range statements queued_batch
// draws from: far more than its 8-entry result cache, so queued work
// executes and can share a scan.
const rangePool = 320

func buildQueuedBatch(rng *rand.Rand, _ *ssb.Dataset) ([]template, []uint32, error) {
	var ts []template
	for _, s := range rangeStatements(rng, rangePool, 0) {
		ts = append(ts, template{class: "range", req: serve.Request{SQL: s, Engine: queries.EngineCPU}})
	}
	for _, q := range queries.All() {
		ts = append(ts, template{class: "catalog", req: serve.Request{QueryID: q.ID, Engine: queries.EngineCPU}})
	}
	// Each cycle is the whole catalog (13 requests, 30%) and 30 statements
	// off a shuffled pool (70%), shuffled together: the catalog's queries
	// differ tenfold in cost, and independent draws would let a seed's luck
	// with them set its throughput.
	const poolPerCycle = 30
	order := make([]uint32, 0, streamLen+len(ts))
	var pool []int
	for len(order) < streamLen {
		cycle := make([]uint32, 0, poolPerCycle+len(ts)-rangePool)
		for i := rangePool; i < len(ts); i++ {
			cycle = append(cycle, uint32(i))
		}
		for i := 0; i < poolPerCycle; i++ {
			if len(pool) == 0 {
				pool = rng.Perm(rangePool)
			}
			cycle = append(cycle, uint32(pool[0]))
			pool = pool[1:]
		}
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		order = append(order, cycle...)
	}
	return ts, order[:streamLen], nil
}
