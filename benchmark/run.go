package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crystal/internal/queries"
	"crystal/internal/serve"
	"crystal/internal/ssb"
)

// expectation is the first reply seen for a template; every later reply to
// the same request must carry the same rows and the same simulated seconds
// to the last bit, batched or replayed from a cache as it may be.
type expectation struct {
	result *queries.Result
	sim    float64
}

// instance is one set-up system under test with its seeded stream.
type instance struct {
	w         *workload
	ds        *ssb.Dataset
	svc       *serve.Service
	templates []template
	order     []uint32
	// warmFrom is the first template the set-up pass executed.
	warmFrom int
	expect   []atomic.Pointer[expectation]
}

func (in *instance) at(i int64) int { return int(in.order[i%int64(len(in.order))]) }

// setUp builds the dataset, the stream and the service, and runs the warm
// pass. The returned duration is the system's share of that: generating
// the dataset, starting the service and executing each warmed template
// once (which compiles its plan, packs the fact table on first packed
// request and fills the caches). Drawing the stream is the harness's own
// work and is left out.
func setUp(w *workload, seed int64) (*instance, []serve.Response, time.Duration, error) {
	start := time.Now()
	ds := ssb.GenerateRows(w.rows)
	system := time.Since(start)

	templates, order, err := w.build(rand.New(rand.NewSource(seed)), ds)
	if err != nil {
		return nil, nil, 0, err
	}
	in := &instance{w: w, ds: ds, templates: templates, order: order,
		expect: make([]atomic.Pointer[expectation], len(templates))}

	start = time.Now()
	in.svc = serve.New(ds, "bench", w.opts)
	if w.warm > 0 && w.warm < len(templates) {
		in.warmFrom = len(templates) - w.warm
	}
	warmed := make([]serve.Response, len(templates)-in.warmFrom)
	for i := range warmed {
		ti := in.warmFrom + i
		resp, err := in.svc.Do(context.Background(), templates[ti].req)
		if err != nil {
			in.svc.Close()
			return nil, nil, 0, fmt.Errorf("warm pass, template %d (%s): %w", ti, templates[ti].class, err)
		}
		warmed[i] = resp
		in.expect[ti].Store(&expectation{result: resp.Result, sim: resp.SimSeconds})
	}
	system += time.Since(start)
	return in, warmed, system, nil
}

// verify compares every warmed reply with the row-at-a-time reference
// oracle. ORDER BY results compare position by position (Result.Equal).
func (in *instance) verify(warmed []serve.Response) error {
	refs := map[string]*queries.Result{}
	for i, resp := range warmed {
		key := resp.Query.Canonical()
		ref, ok := refs[key]
		if !ok {
			ref = queries.Reference(in.ds, resp.Query)
			if len(resp.Query.GroupPayloads()) == 0 && len(ref.Groups) == 0 {
				// An ungrouped aggregate over no rows: the engines report the
				// single zero row the oracle leaves out.
				ref = &queries.Result{Groups: map[int64]int64{0: 0}}
			}
			refs[key] = ref
		}
		ti := in.warmFrom + i
		t := in.templates[ti]
		if !resp.Result.Equal(ref) {
			return fmt.Errorf("template %d (%s) disagrees with the reference oracle:\n%s", ti, t.class, resp.Query.Describe())
		}
		if resp.SimSeconds <= 0 {
			return fmt.Errorf("template %d (%s) reports no simulated time", ti, t.class)
		}
		if t.class == "respelled" && !resp.ResultCached {
			return fmt.Errorf("template %d: the respelling did not share its original's cache entry:\n%s", ti, t.req.SQL)
		}
	}
	return nil
}

// check compares a reply with the template's expectation, recording the
// reply as the expectation when it is the first. The simulated seconds and
// the row count are compared on every reply, the rows themselves when full.
func (in *instance) check(ti int, resp *serve.Response, full bool) bool {
	if resp.Result == nil {
		return false
	}
	e := in.expect[ti].Load()
	if e == nil {
		first := &expectation{result: resp.Result, sim: resp.SimSeconds}
		if in.expect[ti].CompareAndSwap(nil, first) {
			return true
		}
		e = in.expect[ti].Load()
	}
	if resp.SimSeconds != e.sim || len(resp.Result.Groups) != len(e.result.Groups) {
		return false
	}
	return !full || resp.Result.Equal(e.result)
}

// phase is what one driven stretch of the stream measured.
type phase struct {
	attempted, failed int64
	elapsed           time.Duration
	// latencies and queueWaits are the sampled requests', in milliseconds,
	// sorted ascending.
	latencies, queueWaits []float64
	simSeconds            float64
	allocBytes            uint64
	gcPause               time.Duration
	heapSys               uint64
	firstFailure          string
}

func (p *phase) ok() int64 { return p.attempted - p.failed }

// issued stops a phase once count requests have been issued.
func issued(count int64) func(int64) bool {
	return func(i int64) bool { return i >= count }
}

// until stops a phase d from now. It reads the clock on the sampled
// requests only: on cache_hot a clock reading is a sizeable part of a request.
func (in *instance) until(d time.Duration) func(int64) bool {
	deadline, every := time.Now().Add(d), int64(in.w.sampleEvery)
	return func(i int64) bool { return i%every == 0 && !time.Now().Before(deadline) }
}

// drive issues the stream from in.w.clients closed-loop callers until stop,
// asked before each request with that request's index, says so.
func (in *instance) drive(stop func(i int64) bool) phase {
	type tally struct {
		attempted, failed int64
		lat, wait         []float64
		sim               float64
		failure           string
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		tallies = make([]tally, in.w.clients)
		every   = int64(in.w.sampleEvery)
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if stop(i) {
					return
				}
				sampled := i%every == 0
				ti := in.at(i)
				var t0 time.Time
				if sampled {
					t0 = time.Now()
				}
				resp, err := in.svc.Do(context.Background(), in.templates[ti].req)
				if sampled {
					t.lat = append(t.lat, ms(time.Since(t0)))
					t.wait = append(t.wait, ms(resp.QueueWait))
				}
				t.attempted++
				switch {
				case err != nil:
					t.failed++
					if t.failure == "" {
						t.failure = fmt.Sprintf("request %d (%s): %v", i, in.templates[ti].class, err)
					}
				case !in.check(ti, &resp, sampled):
					t.failed++
					if t.failure == "" {
						t.failure = fmt.Sprintf("request %d (%s): rows or simulated seconds differ from the first reply", i, in.templates[ti].class)
					}
				default:
					t.sim += resp.SimSeconds
				}
			}
		}(&tallies[c])
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	runtime.ReadMemStats(&after)
	for _, t := range tallies {
		p.attempted += t.attempted
		p.failed += t.failed
		p.simSeconds += t.sim
		p.latencies = append(p.latencies, t.lat...)
		p.queueWaits = append(p.queueWaits, t.wait...)
		if p.firstFailure == "" {
			p.firstFailure = t.failure
		}
	}
	sort.Float64s(p.latencies)
	sort.Float64s(p.queueWaits)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	p.heapSys = after.HeapSys
	return p
}

// simHead sums, in request order, the simulated seconds of the stream's
// first replayLen requests. Every reply to a template carries the simulated
// seconds of the first to the last bit, so the sum does not depend on how
// fast the host ran or how many callers shared the stream; it moves only
// when the model does. A timed phase too short to have reached all of the
// head is topped up: the requests it lacks are issued here, untimed.
func (in *instance) simHead() (float64, error) {
	var sum float64
	for i := int64(0); i < replayLen; i++ {
		ti := in.at(i)
		if in.expect[ti].Load() == nil {
			resp, err := in.svc.Do(context.Background(), in.templates[ti].req)
			if err != nil {
				return 0, fmt.Errorf("request %d (%s): %w", i, in.templates[ti].class, err)
			}
			in.check(ti, &resp, true)
		}
		sum += in.expect[ti].Load().sim
	}
	return sum, nil
}

// trafficBetween reads the traffic shares of one driven phase off the service's
// counters, as the difference of two snapshots.
func trafficBetween(before, after serve.Stats) trafficCounts {
	var c trafficCounts
	share := func(n, of int64) float64 {
		if of == 0 {
			return 0
		}
		return float64(n) / float64(of)
	}
	requests := after.Requests - before.Requests
	resultHits := after.ResultHits - before.ResultHits
	planHits := after.PlanHits - before.PlanHits
	c.resultHitRate = share(resultHits, resultHits+after.ResultMisses-before.ResultMisses)
	c.planHitRate = share(planHits, planHits+after.PlanMisses-before.PlanMisses)
	c.coalescedShare = share(after.Coalesced-before.Coalesced, requests)
	c.batchedShare = share(after.BatchedRequests-before.BatchedRequests, requests)
	c.batchSizeMean = share(after.BatchedRequests-before.BatchedRequests, after.Batches-before.Batches)
	return c
}
