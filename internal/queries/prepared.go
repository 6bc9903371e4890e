package queries

import "crystal/internal/ssb"

// Plan is a compiled physical plan: one query bound to one dataset, with
// the dimension join hash tables already built. Compiling is the expensive,
// engine-independent part of execution (the build phase scans every
// dimension and inserts the surviving rows), so a Plan is what a serving
// layer caches and shares between requests.
//
// A Plan is safe for concurrent use: the hash tables are only probed after
// compilation (probes are atomic loads), and every run keeps its mutable
// state per call. Simulated times are unaffected by reuse — each run
// re-charges the build traffic exactly as a cold execution would, so a cached
// plan returns the same Result (rows and Seconds) as a freshly compiled one
// while skipping the functional build work.
type Plan struct {
	// Query is the compiled query in plan order.
	Query Query
	ds    *ssb.Dataset
	// builds are the constructed join hash tables plus the build-phase
	// traffic each engine charges on its own device clock.
	builds []buildInfo
	// agg is the accumulator layout of the query's aggregate list, read-only
	// after Compile: the kernels, the merge and the finalizer share it.
	agg *aggState
}

// Compile builds the join hash tables for q over ds and returns the
// reusable plan.
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
