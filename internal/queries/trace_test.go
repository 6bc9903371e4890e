package queries

import (
	"fmt"
	"math/rand"
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/trace"
)

// checkTraceSums pins the tracer's exactness contract against one
// scheduled run: the span tree's simulated seconds and byte attributions
// must reproduce the ScheduledResult's totals bit-for-bit — no tolerance,
// because the tracer copies the runner's own values and recomputes
// overlapped terms through the same deterministic bandwidth model.
func checkTraceSums(t *testing.T, label string, sr *ScheduledResult) {
	t.Helper()
	run := sr.Trace
	if run == nil {
		t.Fatalf("%s: traced run returned no span tree", label)
	}
	if err := trace.Verify(run); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	if run.Sim != sr.Result.Seconds {
		t.Errorf("%s: run span sim %g != Result.Seconds %g", label, run.Sim, sr.Result.Seconds)
	}
	var execSum float64
	for _, er := range sr.Executors {
		execSum += er.Seconds
	}
	if got := run.SumSim(trace.PhaseExecute); got != execSum {
		t.Errorf("%s: execute span sims sum to %g, executors to %g", label, got, execSum)
	}
	if got := run.SumBytes(trace.PhaseTransfer); got != sr.Result.TransferBytes {
		t.Errorf("%s: transfer span bytes %d != Result.TransferBytes %d",
			label, got, sr.Result.TransferBytes)
	}
	execs := 0
	for _, c := range run.Children {
		if c.Phase == trace.PhaseExecute {
			execs++
		}
	}
	if execs != len(sr.Executors) {
		t.Errorf("%s: %d execute spans for %d executors", label, execs, len(sr.Executors))
	}
	if m := run.Child(trace.PhaseMerge); m != nil {
		if m.Bytes != sr.MergeBytes || m.Sim != sr.MergeSeconds {
			t.Errorf("%s: merge span (%d bytes, %g s) != result (%d, %g)",
				label, m.Bytes, m.Sim, sr.MergeBytes, sr.MergeSeconds)
		}
	} else if sr.MergeBytes != 0 {
		t.Errorf("%s: %d merge bytes metered but no merge span", label, sr.MergeBytes)
	}
	if run.Child(trace.PhaseSchedule) == nil {
		t.Errorf("%s: run span has no schedule child", label)
	}
	// ORDER BY runs carry a sort span whose sort-pass children sum to it
	// bit-for-bit (the same left-to-right accumulation the runner performs);
	// unordered runs must not grow one.
	if s := run.Child(trace.PhaseSort); s != nil {
		if sr.Result.Ordered == nil {
			t.Errorf("%s: sort span on an unordered result", label)
		}
		var sum float64
		for _, c := range s.Children {
			if c.Phase != trace.PhaseSortPass {
				t.Errorf("%s: sort span has a %s child", label, c.Phase)
			}
			sum += c.Sim
		}
		if sum != s.Sim {
			t.Errorf("%s: sort passes sum to %g, sort span says %g", label, sum, s.Sim)
		}
	} else if sr.Result.Ordered != nil {
		t.Errorf("%s: ordered result but no sort span", label)
	}
}

// TestTraceSumInvariants is the trace-sum differential harness: 50 seeded
// random queries drawn over the full surface (ORDER BY / LIMIT /
// multi-aggregate included), each run traced on every placement the
// scheduler offers — single-engine CPU/GPU, the explicit-transfer
// coprocessor, a multi-GPU fleet, and the hybrid CPU+GPU split — asserting
// that leaf span seconds sum to the Result totals (sort passes included)
// and span byte attributions sum to the metered bytes, exactly.
func TestTraceSumInvariants(t *testing.T) {
	const numQueries = 50
	r := rand.New(rand.NewSource(20260808))
	ordered := 0
	for i := 0; i < numQueries; i++ {
		q := RandomQuery(r, diffDS, i, GenOptions{Extended: true})
		if len(q.OrderBy) > 0 {
			ordered++
		}
		plan := Compile(diffDS, q)
		opts := RunOptions{Trace: true, Partition: PartitionOptions{Partitions: []int{2, 7, 16, 64}[i%4]}}
		if i%2 == 1 {
			opts.Partition.Packed = diffPacked
		}

		for _, e := range []Engine{EngineCPU, EngineGPU, EngineCoproc} {
			sr, err := plan.RunScheduled(plan.ScheduleEngine(e, opts))
			if err != nil {
				t.Fatalf("%s/%s: %v", e, q.ID, err)
			}
			checkTraceSums(t, fmt.Sprintf("%s/%s", e, q.ID), sr)
		}

		gpus := []int{1, 2, 4, 8}[r.Intn(4)]
		link := fleet.Interconnects()[r.Intn(2)]
		spec := fleet.Spec{GPUs: gpus, Link: link}
		fs, err := plan.ScheduleFleet(spec, opts)
		if err != nil {
			t.Fatalf("fleet schedule on %s: %v", q.ID, err)
		}
		sr, err := plan.RunScheduled(fs)
		if err != nil {
			t.Fatalf("fleet run on %s: %v", q.ID, err)
		}
		checkTraceSums(t, fmt.Sprintf("fleet %dx%s/%s", gpus, link.Name, q.ID), sr)

		hs, frac, err := plan.ScheduleHybrid(spec, -1, opts)
		if err != nil {
			t.Fatalf("hybrid schedule on %s: %v", q.ID, err)
		}
		sr, err = plan.RunScheduled(hs)
		if err != nil {
			t.Fatalf("hybrid run on %s: %v", q.ID, err)
		}
		checkTraceSums(t, fmt.Sprintf("hybrid frac=%.2f/%s", frac, q.ID), sr)
	}
	if ordered < numQueries/4 {
		t.Errorf("only %d/%d traced queries had ORDER BY; sort spans under-covered", ordered, numQueries)
	}
}

// TestTraceOffAllocatesNothing: with RunOptions.Trace unset (the default)
// no placement returns a span tree — the observability layer must be
// invisible unless asked for.
func TestTraceOffReturnsNoSpans(t *testing.T) {
	plan := Compile(diffDS, RandomQuery(rand.New(rand.NewSource(7)), diffDS, 0, GenOptions{}))
	opts := RunOptions{Partition: PartitionOptions{Partitions: 4}}
	sr, err := plan.RunScheduled(plan.ScheduleEngine(EngineCPU, opts))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Trace != nil {
		t.Error("untraced engine run returned a span tree")
	}
	fr, err := runFleet(plan, fleet.Spec{GPUs: 2, Link: fleet.Interconnects()[0]}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Trace != nil {
		t.Error("untraced fleet run returned a span tree")
	}
	hr, err := runHybrid(plan, fleet.Spec{GPUs: 2, Link: fleet.Interconnects()[0]}, -1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Trace != nil {
		t.Error("untraced hybrid run returned a span tree")
	}
}

// TestTracedRunsMatchUntraced: tracing is observability only — a traced
// run's merged rows and simulated totals must be identical to the
// untraced run of the same schedule.
func TestTracedRunsMatchUntraced(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	q := RandomQuery(r, diffDS, 3, GenOptions{})
	plan := Compile(diffDS, q)
	base := RunOptions{Partition: PartitionOptions{Partitions: 8}}
	traced := base
	traced.Trace = true

	spec := fleet.Spec{GPUs: 4, Link: fleet.Interconnects()[1]}
	fr0, err := runFleet(plan, spec, base)
	if err != nil {
		t.Fatal(err)
	}
	fr1, err := runFleet(plan, spec, traced)
	if err != nil {
		t.Fatal(err)
	}
	if fr1.Trace == nil {
		t.Fatal("traced fleet run returned no span tree")
	}
	if !fr1.Result.Equal(fr0.Result) || fr1.Result.Seconds != fr0.Result.Seconds {
		t.Error("tracing changed the fleet result")
	}

	hr0, err := runHybrid(plan, spec, 0.5, base)
	if err != nil {
		t.Fatal(err)
	}
	hr1, err := runHybrid(plan, spec, 0.5, traced)
	if err != nil {
		t.Fatal(err)
	}
	if hr1.Trace == nil {
		t.Fatal("traced hybrid run returned no span tree")
	}
	if !hr1.Result.Equal(hr0.Result) || hr1.Result.Seconds != hr0.Result.Seconds {
		t.Error("tracing changed the hybrid result")
	}
}
