package queries

import "crystal/internal/ssb"

// Plan is a compiled physical plan: one query bound to one dataset, with
// each filtered join's row bitmap already computed over the dimension's
// key index. Compiling is the engine-independent part of execution (one
// filter pass over each filtered dimension), so a Plan is what a serving
// layer caches and shares between requests.
//
// A Plan is safe for concurrent use: the bitmaps, the key indexes and the
// payload columns are only read after compilation, and every run keeps its
// mutable state per call. Simulated times are unaffected by reuse — each
// run re-charges the build traffic of the modelled join hash tables exactly
// as a cold execution would, so a cached plan returns the same Result (rows
// and Seconds) as a freshly compiled one.
type Plan struct {
	// Query is the compiled query in plan order.
	Query Query
	ds    *ssb.Dataset
	// builds are the resolved joins plus the build-phase traffic each
	// engine charges on its own device clock.
	builds []buildInfo
	// agg is the accumulator layout of the query's aggregate list, read-only
	// after Compile: the kernels, the merge and the finalizer share it.
	agg *aggState
}

// Compile resolves q's joins over ds and returns the reusable plan. It
// panics on a dimension whose key repeats (see buildTables).
func Compile(ds *ssb.Dataset, q Query) *Plan {
	return &Plan{Query: q, ds: ds, builds: buildTables(ds, q), agg: newAggState(&q)}
}

// Dataset returns the dataset the plan was compiled against.
func (p *Plan) Dataset() *ssb.Dataset { return p.ds }

// Morsels returns the dataset's zone-mapped morsels for the given partition
// count. The dataset memoises them by effective count and every plan over it
// shares the one slice: it is read-only.
func (p *Plan) Morsels(n int) []ssb.Morsel { return p.ds.Partition(n) }

// Run executes the compiled plan on the chosen engine as one monolithic
// scan: RunScheduled over ScheduleEngine with default options (a single
// unmapped morsel — identical to any partition count as long as zone maps
// prune nothing).
func (p *Plan) Run(e Engine) *Result {
	sr, err := p.RunScheduled(p.ScheduleEngine(e, RunOptions{}))
	if err != nil {
		// Unreachable: ScheduleEngine covers every morsel exactly once.
		panic("queries: invalid engine schedule: " + err.Error())
	}
	return sr.Result
}
