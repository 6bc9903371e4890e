package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crystal/internal/crystal"
	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/gpu"
	"crystal/internal/planner"
	"crystal/internal/queries"
	"crystal/internal/sched"
	"crystal/internal/serve"
	"crystal/internal/sim"
	sqlfe "crystal/internal/sql"
	"crystal/internal/ssb"
	tracepkg "crystal/internal/trace"
)

// span is one timed call into a layer, recorded by the harness from outside
// the program. Spans of one request share req (its index in the stream);
// probes outside any request carry req -1. parent is the id of the span that
// caused this one, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. While muted it records
// nothing: a probe's first, cache-filling call goes through the same code
// unrecorded.
type tracer struct {
	t0    time.Time
	spans []span
	muted bool
}

func (t *tracer) begin(name string, parent, req int) int {
	if t.muted {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// probe times one call outside any request.
func (t *tracer) probe(name string, fn func()) {
	id := t.begin(name, -1, -1)
	fn()
	t.end(id)
}

// median is the median length of the spans called name.
func (t *tracer) median(name string) time.Duration {
	var ns []float64
	for _, s := range t.spans {
		if s.Name == name {
			ns = append(ns, float64(s.End-s.Start))
		}
	}
	return time.Duration(median(ns))
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// helperGate is the morsel-helper limiter the hand-assembled runs share,
// sized like the service's so both spawn the same helpers.
type helperGate chan struct{}

func (g helperGate) TryAcquire() bool {
	select {
	case g <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g helperGate) Release() { <-g }

// pipeline assembles a request by hand from the layers' public functions,
// the way serve.Service.execute composes them, so that each call can carry
// a span. It keeps its own bind and plan memos where the service keeps
// caches.
type pipeline struct {
	ds     *ssb.Dataset
	packed *ssb.PackedFact
	gate   helperGate
	tr     *tracer
	named  map[string]queries.Query
	binds  map[string]queries.Query
	plans  map[string]*queries.Plan
}

func newPipeline(ds *ssb.Dataset, packed *ssb.PackedFact, tr *tracer) *pipeline {
	p := &pipeline{ds: ds, packed: packed, gate: make(helperGate, pinned), tr: tr,
		named: map[string]queries.Query{}, binds: map[string]queries.Query{}, plans: map[string]*queries.Plan{}}
	for _, q := range queries.All() {
		p.named[q.ID] = q
	}
	return p
}

// resolve is the frontend: catalog lookup, or parse, bind and join-order.
func (p *pipeline) resolve(req serve.Request, parent, id int) (queries.Query, error) {
	if req.SQL == "" {
		return p.named[req.QueryID], nil
	}
	if q, ok := p.binds[req.SQL]; ok {
		return q, nil
	}
	s := p.tr.begin("sql.parse", parent, id)
	sel, err := sqlfe.Parse(req.SQL)
	p.tr.end(s)
	if err != nil {
		return queries.Query{}, err
	}
	s = p.tr.begin("sql.bind", parent, id)
	q, err := sqlfe.Bind(sel)
	p.tr.end(s)
	if err != nil {
		return queries.Query{}, err
	}
	s = p.tr.begin("planner.optimize", parent, id)
	q = planner.OptimizeGrouped(device.V100(), p.ds, q)
	p.tr.end(s)
	p.binds[req.SQL] = q
	return q, nil
}

// plan returns the compiled plan, compiling when the memo lacks it or when
// recompile says the service compiled afresh too (its plan LRU evicted it).
func (p *pipeline) plan(q queries.Query, recompile bool, parent, id int) *queries.Plan {
	canon := q.Canonical()
	if pl, ok := p.plans[canon]; ok && !recompile {
		return pl
	}
	s := p.tr.begin("queries.compile", parent, id)
	pl := queries.Compile(p.ds, q)
	p.tr.end(s)
	p.plans[canon] = pl
	return pl
}

// schedule maps the request's shape onto a schedule with the canonical
// morsel counts serve uses: placement requests get at least GPUs+1 morsels,
// fleet requests at least GPUs, both clamped to the tile count.
func (p *pipeline) schedule(pl *queries.Plan, req serve.Request, parent, id int) (sched.Schedule, error) {
	opts := queries.RunOptions{}
	opts.Partition.Limiter = p.gate
	if req.Packed {
		opts.Partition.Packed = p.packed
	}
	parts := req.Partitions
	clamp := func(floor int) {
		if parts < floor {
			parts = floor
		}
		if eff := ssb.EffectivePartitions(p.ds.Lineorder.Rows(), parts); eff > 0 {
			parts = eff
		}
	}
	link, err := fleet.ParseInterconnect(req.Interconnect)
	if err != nil {
		return sched.Schedule{}, err
	}
	switch {
	case req.Placement != "":
		fl := fleet.Spec{GPUs: max(req.GPUs, 1), Link: link}
		clamp(fl.GPUs + 1)
		opts.Partition.Partitions = parts
		placement := req.Placement
		if placement == serve.PlacementAuto {
			s := p.tr.begin("planner.choose_placement", parent, id)
			choice, _, err := planner.ChoosePlacement(fl, p.ds, pl.Query, pl.Morsels(parts), opts.Partition.Packed)
			p.tr.end(s)
			if err != nil {
				return sched.Schedule{}, err
			}
			placement = string(choice)
		}
		frac := -1.0
		switch placement {
		case serve.PlacementCPU:
			frac = 1
		case serve.PlacementGPU:
			frac = 0
		}
		s := p.tr.begin("queries.schedule", parent, id)
		sc, _, err := pl.ScheduleHybrid(fl, frac, opts)
		p.tr.end(s)
		return sc, err
	case req.GPUs > 0:
		clamp(req.GPUs)
		opts.Partition.Partitions = parts
		s := p.tr.begin("queries.schedule", parent, id)
		sc, err := pl.ScheduleFleet(fleet.Spec{GPUs: req.GPUs, Link: link}, opts)
		p.tr.end(s)
		return sc, err
	default:
		engine, err := serve.ParseEngine(string(req.Engine))
		if err != nil {
			return sched.Schedule{}, err
		}
		opts.Partition.Partitions = parts
		s := p.tr.begin("queries.schedule", parent, id)
		sc := pl.ScheduleEngine(engine, opts)
		p.tr.end(s)
		return sc, nil
	}
}

// execute runs every stage of one request under a "stages" span and
// returns the result with the time all stages took and the run stage's part
// of it; the rest is the frontend (resolve, compile, placement, schedule).
func (p *pipeline) execute(req serve.Request, recompile bool, id int) (res *queries.Result, total, run time.Duration, err error) {
	root := p.tr.begin("stages", -1, id)
	defer func() { total = p.tr.end(root) }()
	q, err := p.resolve(req, root, id)
	if err != nil {
		return nil, 0, 0, err
	}
	pl := p.plan(q, recompile, root, id)
	sc, err := p.schedule(pl, req, root, id)
	if err != nil {
		return nil, 0, 0, err
	}
	s := p.tr.begin("queries.run", root, id)
	sr, err := pl.RunScheduled(sc)
	run = p.tr.end(s)
	if err != nil {
		return nil, 0, 0, err
	}
	return sr.Result, 0, run, nil
}

// replayLen is how much of the stream the traced run replays, one request
// at a time on one goroutine.
const replayLen = 256

// tracedLen is how many of those are also sent to a service with
// Options.Trace on, to price the program's own tracing.
const tracedLen = 64

// replay issues the head of the stream twice over — through a fresh
// service ("request" spans) and through the hand-assembled pipeline
// ("stages" spans with one child per layer call) — and returns the
// composition metrics. A request the service answered from its result
// cache or a flight has no stages to assemble.
func (in *instance) replay(p *pipeline, m map[string]float64) error {
	svc := serve.New(in.ds, "replay", in.w.opts)
	defer svc.Close()
	tracedOpts := in.w.opts
	tracedOpts.Trace = true
	traced := serve.New(in.ds, "traced", tracedOpts)
	defer traced.Close()

	var (
		stages, run            time.Duration
		requests, staged       []float64 // nanoseconds
		plain, withTrace       []float64
		spans, morsels, pruned int
		transfer, merge        int64
		sim                    float64
	)
	ctx := context.Background()
	for i := 0; i < replayLen; i++ {
		ti := in.at(int64(i))
		req := in.templates[ti].req
		// Odd requests go to the traced service first, so neither side
		// always runs on the caches the other just warmed.
		viaTraced := func() error {
			s := p.tr.begin("request.traced", -1, i)
			tresp, err := traced.Do(ctx, req)
			withTrace = append(withTrace, float64(p.tr.end(s)))
			if err != nil {
				return fmt.Errorf("traced request %d: %w", i, err)
			}
			if tresp.Trace != nil {
				tresp.Trace.Root.Walk(func(*tracepkg.Span) { spans++ })
			}
			return nil
		}
		if i < tracedLen && i%2 == 1 {
			if err := viaTraced(); err != nil {
				return err
			}
		}
		s := p.tr.begin("request", -1, i)
		resp, err := svc.Do(ctx, req)
		d := p.tr.end(s)
		if err != nil {
			return fmt.Errorf("replay request %d: %w", i, err)
		}
		if !in.check(ti, &resp, true) {
			return fmt.Errorf("replay request %d (%s): rows or simulated seconds differ from the timed phase", i, in.templates[ti].class)
		}
		requests = append(requests, float64(d))
		sim += resp.SimSeconds
		morsels += resp.Morsels
		pruned += resp.Pruned
		transfer += resp.TransferBytes
		merge += resp.MergeBytes

		if i < tracedLen {
			plain = append(plain, float64(d))
			if i%2 == 0 {
				if err := viaTraced(); err != nil {
					return err
				}
			}
		}

		if resp.ResultCached || resp.Coalesced {
			staged = append(staged, 0)
			continue
		}
		res, total, runTime, err := p.execute(req, !resp.PlanCached, i)
		if err != nil {
			return fmt.Errorf("hand-assembled request %d: %w", i, err)
		}
		if !res.Equal(resp.Result) || res.Seconds != resp.SimSeconds {
			return fmt.Errorf("hand-assembled request %d (%s) disagrees with the service", i, in.templates[ti].class)
		}
		stages += total
		staged = append(staged, float64(total))
		run += runTime
	}
	pct := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * (a - b) / b
	}
	if stages > 0 {
		m["request.run_share"] = float64(run) / float64(stages)
		m["request.frontend_share"] = float64(stages-run) / float64(stages)
	}
	m["trace.harness_overhead_pct"] = pct(median(staged), median(requests))
	m["trace.on_overhead_pct"] = pct(median(withTrace), median(plain))
	m["trace.spans_per_req"] = float64(spans) / tracedLen
	m["queries.morsels"] = float64(morsels) / replayLen
	if morsels > 0 {
		m["queries.pruned_share"] = float64(pruned) / float64(morsels)
	}
	m["queries.transfer_bytes"] = float64(transfer) / replayLen
	m["queries.merge_bytes"] = float64(merge) / replayLen
	m["sim.replay_s"] = sim
	return nil
}

// probeStatements returns up to n statements to probe the frontend and the
// aggregation tables with: the workload's own SQL first, topped up with
// the catalog's renderings so a workload without SQL still has a number.
func (in *instance) probeStatements(n int) []string {
	var out []string
	for _, t := range in.templates {
		if t.req.SQL != "" && len(out) < n {
			out = append(out, t.req.SQL)
		}
	}
	for _, q := range queries.All() {
		if len(out) < n {
			out = append(out, q.Describe())
		}
	}
	return out
}

// probeLayers times each layer's public entry points on the workload's own
// dataset and statements, outside any request.
func (in *instance) probeLayers(p *pipeline, m map[string]float64) error {
	tr, ds := p.tr, in.ds
	v100 := device.V100()

	// ssb: what set-up pays.
	for i := 0; i < 3; i++ {
		tr.probe("ssb.generate", func() { ssb.GenerateRows(in.w.rows) })
		tr.probe("ssb.pack", func() { ds.Pack() })
		tr.probe("ssb.partition", func() { ds.Partition(64) })
	}
	m["ssb.generate_ms"] = ms(tr.median("ssb.generate"))
	m["ssb.pack_ms"] = ms(tr.median("ssb.pack"))
	m["ssb.partition_ms"] = ms(tr.median("ssb.partition"))
	m["pack.bytes_ratio"] = float64(p.packed.Bytes()) / float64(p.packed.PlainBytes())

	// sql, planner, compile, crystal aggregation tables: per statement.
	fl := fleet.Spec{GPUs: 1}
	morsels := ds.Partition(2)
	for _, stmt := range in.probeStatements(32) {
		var sel *sqlfe.Select
		var q queries.Query
		var err error
		tr.probe("sql.parse", func() { sel, err = sqlfe.Parse(stmt) })
		if err != nil {
			return err
		}
		tr.probe("sql.bind", func() { q, err = sqlfe.Bind(sel) })
		if err != nil {
			return err
		}
		tr.probe("planner.optimize", func() { q = planner.OptimizeGrouped(v100, ds, q) })
		tr.probe("queries.compile", func() { queries.Compile(ds, q) })
		tr.probe("planner.choose_placement", func() { _, _, err = planner.ChoosePlacement(fl, ds, q, morsels, nil) })
		if err != nil {
			return err
		}
		var table *crystal.AggTable
		tr.probe("crystal.agg_new", func() { table = crystal.NewAggTable(q.GroupEstimate()) })
		tr.probe("crystal.agg_each", func() { table.Each(func(int64, int64) {}) })
	}
	m["sql.parse_us"] = us(tr.median("sql.parse"))
	m["sql.bind_us"] = us(tr.median("sql.bind"))
	m["planner.optimize_us"] = us(tr.median("planner.optimize"))
	m["planner.choose_placement_us"] = us(tr.median("planner.choose_placement"))
	m["queries.compile_us"] = us(tr.median("queries.compile"))
	m["crystal.agg_new_us"] = us(tr.median("crystal.agg_new"))
	m["crystal.agg_each_us"] = us(tr.median("crystal.agg_each"))

	// crystal hash build: one star's worth, all four dimensions.
	for i := 0; i < 3; i++ {
		tr.probe("crystal.hash_build", func() {
			clk := device.NewClock(v100)
			gpu.BuildHashTable(clk, ds.Date.Key, ds.Date.Col("year"), 0.5)
			gpu.BuildHashTable(clk, ds.Customer.Key, ds.Customer.Col("nation"), 0.5)
			gpu.BuildHashTable(clk, ds.Supplier.Key, ds.Supplier.Col("nation"), 0.5)
			gpu.BuildHashTable(clk, ds.Part.Key, ds.Part.Col("brand1"), 0.5)
		})
	}
	m["crystal.hash_build_us"] = us(tr.median("crystal.hash_build"))

	// gpu: the radix sort behind ORDER BY on GPU placements.
	const sortKeys = 1 << 16
	rng := rand.New(rand.NewSource(1))
	keys, vals := make([]uint64, sortKeys), make([]int32, sortKeys)
	for i := range keys {
		keys[i], vals[i] = uint64(rng.Int63n(1<<40)), int32(i)
	}
	for i := 0; i < 3; i++ {
		tr.probe("gpu.radix_sort", func() {
			gpu.LSBRadixSort64(device.NewClock(v100), sim.DefaultConfig(sortKeys), keys, vals, 40)
		})
	}
	m["gpu.radix_sort_ns_per_key"] = float64(tr.median("gpu.radix_sort")) / sortKeys

	// fleet and sched: shard assignment and the hybrid split.
	m64 := ds.Partition(64)
	none := make([]bool, len(m64))
	for i := 0; i < 64; i++ {
		tr.probe("fleet.assign", func() {
			fleet.Assign(m64, 4, v100.MemoryBytes, func(mo ssb.Morsel) int64 { return ssb.MorselStorageBytes(nil, mo) })
		})
		tr.probe("sched.split_hybrid", func() { sched.SplitHybrid(m64, none, 0.3) })
	}
	m["fleet.assign_us"] = us(tr.median("fleet.assign"))
	m["sched.split_hybrid_us"] = us(tr.median("sched.split_hybrid"))

	if err := in.probeClasses(p, m); err != nil {
		return err
	}
	return in.probeBatch(p, m)
}

// probeClasses runs the catalog under each scan_solo class straight through
// Plan.RunScheduled: the row loop, aggregation, merge and sort with no
// service around them.
func (in *instance) probeClasses(p *pipeline, m map[string]float64) error {
	ts, _, err := buildScanSolo(rand.New(rand.NewSource(0)), in.ds)
	if err != nil {
		return err
	}
	type cost struct {
		runs, mallocs, bytes float64
	}
	costs := map[string]*cost{}
	var cpuSim, gpuSim []float64
	for _, t := range ts {
		q, err := p.resolve(t.req, -1, -1)
		if err != nil {
			return err
		}
		pl := p.plan(q, false, -1, -1)
		// The first schedule of a plan computes its zone maps, which the
		// service pays once per cached plan; time the steady state.
		p.tr.muted = true
		_, err = p.schedule(pl, t.req, -1, -1)
		p.tr.muted = false
		if err != nil {
			return err
		}
		sc, err := p.schedule(pl, t.req, -1, -1)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.tr.probe("queries.run."+t.class, func() { _, err = pl.RunScheduled(sc) })
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		c := costs[t.class]
		if c == nil {
			c = &cost{}
			costs[t.class] = c
		}
		c.runs++
		c.mallocs += float64(after.Mallocs - before.Mallocs)
		c.bytes += float64(after.TotalAlloc - before.TotalAlloc)
		switch t.class {
		case "cpu":
			cpuSim = append(cpuSim, pl.Run(queries.EngineCPU).Seconds)
		case "gpu":
			gpuSim = append(gpuSim, pl.Run(queries.EngineGPU).Seconds)
		}
	}
	for class, c := range costs {
		m["queries.run_ms."+class] = ms(p.tr.median("queries.run." + class))
		if class == "cpu" || class == "gpu" {
			m["queries.host_ns_per_row."+class] = float64(p.tr.median("queries.run."+class)) / float64(in.ds.Lineorder.Rows())
			m["queries.allocs_per_run."+class] = c.mallocs / c.runs
			m["queries.alloc_kb_per_run."+class] = c.bytes / c.runs / 1024
		}
	}
	m["queries.schedule_us"] = us(p.tr.median("queries.schedule"))
	var speedup float64
	for i := range cpuSim {
		speedup += cpuSim[i] / gpuSim[i]
	}
	m["sim.gpu_cpu_speedup"] = speedup / float64(len(cpuSim))
	return nil
}

// probeBatch prices the shared scan against solo runs of its members: eight
// scan-compatible range statements, batched and then one at a time.
func (in *instance) probeBatch(p *pipeline, m map[string]float64) error {
	const members = 8
	var plans []*queries.Plan
	var qs []queries.Query
	for _, stmt := range rangeStatements(rand.New(rand.NewSource(0)), members, 0) {
		q, err := p.resolve(serve.Request{SQL: stmt}, -1, -1)
		if err != nil {
			return err
		}
		qs = append(qs, q)
		plans = append(plans, p.plan(q, false, -1, -1))
	}
	opts := queries.RunOptions{}
	opts.Partition.Limiter = p.gate
	morsels := in.ds.Partition(2)
	var shared float64
	for i := 0; i < 3; i++ {
		for _, e := range []queries.Engine{queries.EngineCPU, queries.EngineGPU} {
			var br *queries.BatchResult
			var err error
			p.tr.probe("queries.batch."+serve.EngineAlias(e), func() { br, err = queries.RunBatch(plans, e, opts) })
			if err != nil {
				return err
			}
			shared = float64(br.SharedScanBytes) / float64(br.SoloScanBytes)
		}
		p.tr.probe("queries.solo8.cpu", func() {
			for _, pl := range plans {
				if _, err := pl.RunScheduled(pl.ScheduleEngine(queries.EngineCPU, opts)); err != nil {
					panic(err) // unreachable: ScheduleEngine covers every morsel once
				}
			}
		})
		p.tr.probe("planner.choose_batch", func() {
			_, _, _ = planner.ChooseBatchPlacement(fleet.Spec{GPUs: 1}, in.ds, qs, morsels, nil)
		})
	}
	m["queries.batch_member_ms.cpu"] = ms(p.tr.median("queries.batch.cpu")) / members
	m["queries.batch_member_ms.gpu"] = ms(p.tr.median("queries.batch.gpu")) / members
	m["queries.batch_vs_solo_ratio"] = float64(p.tr.median("queries.batch.cpu")) / float64(p.tr.median("queries.solo8.cpu"))
	m["queries.shared_scan_share"] = shared
	m["planner.choose_batch_us"] = us(p.tr.median("planner.choose_batch"))
	return nil
}

// probeServe times the service around a fixed request: a result-cache hit,
// and what a fresh execution costs beyond the run it wraps. It also prices
// the planner's automatic placement against the best forced one, in
// simulated seconds.
func (in *instance) probeServe(p *pipeline, m map[string]float64) error {
	svc := serve.New(in.ds, "probe", in.w.opts)
	defer svc.Close()
	ctx := context.Background()
	req := serve.Request{QueryID: "q2.1", Placement: serve.PlacementCPU}
	if _, err := svc.Do(ctx, req); err != nil {
		return err
	}
	for i := 0; i < 256; i++ {
		var err error
		p.tr.probe("serve.hit", func() { _, err = svc.Do(ctx, req) })
		if err != nil {
			return err
		}
	}
	m["serve.hit_us"] = us(p.tr.median("serve.hit"))

	fresh := req
	fresh.NoCache = true
	pl := p.plan(p.named[req.QueryID], false, -1, -1)
	for i := 0; i < 16; i++ {
		var err error
		p.tr.probe("serve.fresh", func() { _, err = svc.Do(ctx, fresh) })
		if err != nil {
			return err
		}
		sc, err := p.schedule(pl, fresh, -1, -1)
		if err != nil {
			return err
		}
		p.tr.probe("serve.direct", func() { _, err = pl.RunScheduled(sc) })
		if err != nil {
			return err
		}
	}
	m["serve.overhead_us"] = us(p.tr.median("serve.fresh") - p.tr.median("serve.direct"))

	var regret float64
	for _, q := range queries.All() {
		sims := map[string]float64{}
		for _, placement := range []string{serve.PlacementAuto, serve.PlacementCPU, serve.PlacementGPU, serve.PlacementHybrid} {
			resp, err := svc.Do(ctx, serve.Request{QueryID: q.ID, Placement: placement})
			if err != nil {
				return err
			}
			sims[placement] = resp.SimSeconds
		}
		best := min(sims[serve.PlacementCPU], sims[serve.PlacementGPU], sims[serve.PlacementHybrid])
		regret += 100 * (sims[serve.PlacementAuto] - best) / best
	}
	m["planner.auto_regret_pct"] = regret / float64(len(queries.All()))
	return nil
}
