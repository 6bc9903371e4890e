package queries

import "crystal/internal/fleet"

// The helpers below spell the two-step execution API (build a schedule, call
// RunScheduled) once for the package's tests.

// runEngine runs p on a single engine with opts.
func runEngine(p *Plan, e Engine, opts RunOptions) *Result {
	sr, err := p.RunScheduled(p.ScheduleEngine(e, opts))
	if err != nil {
		panic(err) // unreachable: ScheduleEngine covers every morsel exactly once
	}
	return sr.Result
}

// runFleet runs p range-sharded across the GPU fleet fl.
func runFleet(p *Plan, fl fleet.Spec, opts RunOptions) (*ScheduledResult, error) {
	s, err := p.ScheduleFleet(fl, opts)
	if err != nil {
		return nil, err
	}
	return p.RunScheduled(s)
}

// runHybrid co-executes p on the host CPU engine and the GPU fleet fl, the
// CPU arm taking frac of the live rows (negative: the balanced default).
func runHybrid(p *Plan, fl fleet.Spec, frac float64, opts RunOptions) (*ScheduledResult, error) {
	s, _, err := p.ScheduleHybrid(fl, frac, opts)
	if err != nil {
		return nil, err
	}
	return p.RunScheduled(s)
}
