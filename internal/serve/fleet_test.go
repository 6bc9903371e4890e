package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"crystal/internal/queries"
	"crystal/internal/queries/queriestest"
)

// TestFleetRequests covers the fleet routing basics: a fleet request is
// row-identical to the single-device GPU request, reports its shape and
// per-device telemetry, and caches under its own (gpus, interconnect) key.
func TestFleetRequests(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	single, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: queries.EngineGPU})
	if err != nil {
		t.Fatal(err)
	}
	fleet2, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: "gpu", GPUs: 2, Interconnect: "nvlink"})
	if err != nil {
		t.Fatal(err)
	}
	queriestest.SameRows(t, "2-GPU fleet vs single device", fleet2.Result, single.Result)
	if fleet2.GPUs != 2 || fleet2.Interconnect != "nvlink" {
		t.Errorf("fleet shape echo = %d/%q, want 2/nvlink", fleet2.GPUs, fleet2.Interconnect)
	}
	if len(fleet2.Devices) != 2 {
		t.Fatalf("%d device entries, want 2", len(fleet2.Devices))
	}
	if fleet2.Morsels != 2 {
		t.Errorf("fleet morsels = %d, want 2 (one shard per device)", fleet2.Morsels)
	}
	if fleet2.ResultCached {
		t.Error("first fleet request served from cache")
	}

	// Identical shape: a result-cache hit with the telemetry intact.
	again, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: "gpu", GPUs: 2, Interconnect: "nvlink"})
	if err != nil {
		t.Fatal(err)
	}
	if !again.ResultCached {
		t.Error("repeated fleet request missed the result cache")
	}
	if len(again.Devices) != 2 || again.GPUs != 2 || again.MergeBytes != fleet2.MergeBytes {
		t.Error("cached fleet replay lost its telemetry")
	}
	queriestest.SameRun(t, "cached fleet replay", again.Result, fleet2.Result)

	// A different fleet size or link is a different physical execution:
	// plan shared, result recomputed.
	other, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: "gpu", GPUs: 4, Interconnect: "nvlink"})
	if err != nil {
		t.Fatal(err)
	}
	if !other.PlanCached || other.ResultCached {
		t.Errorf("4-GPU request: PlanCached=%v ResultCached=%v, want plan hit + result miss",
			other.PlanCached, other.ResultCached)
	}
	pcie, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: "gpu", GPUs: 2, Interconnect: "pcie"})
	if err != nil {
		t.Fatal(err)
	}
	if pcie.ResultCached {
		t.Error("pcie fleet request hit the nvlink entry")
	}
	if pcie.SimSeconds <= again.SimSeconds {
		t.Errorf("pcie fleet (%.12fs) not slower than nvlink (%.12fs): merge term lost",
			pcie.SimSeconds, again.SimSeconds)
	}

	// The default interconnect is PCIe, sharing its cache entry.
	deflt, err := s.Do(ctx, Request{QueryID: "q2.1", Engine: "gpu", GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if deflt.Interconnect != "pcie" || !deflt.ResultCached {
		t.Errorf("default interconnect = %q (cached=%v), want pcie sharing the pcie entry",
			deflt.Interconnect, deflt.ResultCached)
	}
}

func TestFleetRequestErrors(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: queries.EngineCPU, GPUs: 2}); err == nil {
		t.Error("fleet request on a CPU engine accepted")
	}
	if _, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: "gpu", GPUs: 2, Interconnect: "infiniband"}); err == nil {
		t.Error("unknown interconnect accepted")
	}
	if _, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: "gpu", GPUs: 100000}); err == nil {
		t.Error("absurd fleet size accepted")
	}
	// Negative GPUs clamps to single-device execution.
	resp, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: "gpu", GPUs: -3})
	if err != nil || resp.GPUs != 0 || len(resp.Devices) != 0 {
		t.Errorf("negative GPUs: err=%v gpus=%d devices=%d, want plain single-device run",
			err, resp.GPUs, len(resp.Devices))
	}
	if st := s.Stats(); st.Errors != 3 {
		t.Errorf("stats recorded %d errors, want 3", st.Errors)
	}
}

// TestFleetConcurrentSubmissions floods one Service with mixed -gpus
// values from many client goroutines (run under -race in CI): every
// response must be row-identical to the sequential reference, whatever
// fleet shape produced it.
func TestFleetConcurrentSubmissions(t *testing.T) {
	ds := testData()
	s := New(ds, "v1", Options{Workers: 4, MorselHelpers: 2})
	defer s.Close()

	ids := []string{"q1.1", "q2.1", "q3.2"}
	refs := map[string]*queries.Result{}
	for _, id := range ids {
		q := mustQuery(t, id)
		refs[id] = queries.Reference(ds, q)
	}
	links := []string{"pcie", "nvlink"}
	gpuCounts := []int{1, 2, 4}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				req := Request{
					QueryID:      ids[(c+i)%len(ids)],
					Engine:       "gpu",
					GPUs:         gpuCounts[(c+2*i)%len(gpuCounts)],
					Interconnect: links[(c+i)%len(links)],
					NoCache:      i%2 == 0,
				}
				resp, err := s.Do(context.Background(), req)
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				if !resp.Result.Equal(refs[req.QueryID]) {
					errs <- fmt.Errorf("client %d: %s on %d GPUs diverged from reference", c, req.QueryID, req.GPUs)
					return
				}
				if len(resp.Devices) != req.GPUs {
					errs <- fmt.Errorf("client %d: %d device entries for %d GPUs", c, len(resp.Devices), req.GPUs)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if want := int64(clients * 12); st.FleetRequests != want {
		t.Errorf("fleet requests = %d, want %d", st.FleetRequests, want)
	}
}

// TestFleetStatsSumToTotals is the regression gate for the per-device
// breakdown: across a mix of fleet shapes, the per-device /stats counters
// must sum exactly to the fleet totals, and the totals must match what the
// responses reported.
func TestFleetStatsSumToTotals(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	var wantMorsels, wantRows int64
	var wantRequests int64
	for _, req := range []Request{
		{QueryID: "q1.1", Engine: "gpu", GPUs: 1},
		{QueryID: "q1.1", Engine: "gpu", GPUs: 2, Partitions: 8},
		{QueryID: "q2.1", Engine: "gpu", GPUs: 4, Interconnect: "nvlink"},
		{QueryID: "q2.1", Engine: "gpu", GPUs: 4, Interconnect: "nvlink"}, // cache hit: still counted
		{QueryID: "q3.2", Engine: "gpu", GPUs: 2, Interconnect: "pcie", Packed: true},
	} {
		resp, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		wantRequests++
		for _, fd := range resp.Devices {
			wantMorsels += int64(fd.Morsels)
			wantRows += fd.Rows
		}
	}

	st := s.Stats()
	if st.FleetRequests != wantRequests {
		t.Errorf("fleet requests = %d, want %d", st.FleetRequests, wantRequests)
	}
	if st.FleetMorsels != wantMorsels || st.FleetRows != wantRows {
		t.Errorf("fleet totals = %d morsels / %d rows, responses say %d / %d",
			st.FleetMorsels, st.FleetRows, wantMorsels, wantRows)
	}
	var devMorsels, devPruned, devRows, devSpill, devResident, devRequests int64
	var devSeconds float64
	for _, d := range st.FleetDevices {
		devMorsels += d.Morsels
		devPruned += d.Pruned
		devRows += d.Rows
		devSpill += d.SpillBytes
		devResident += d.ResidentCols
		devSeconds += d.SimSeconds
		if d.Requests > devRequests {
			devRequests = d.Requests
		}
	}
	if devMorsels != st.FleetMorsels {
		t.Errorf("per-device morsels sum to %d, total says %d", devMorsels, st.FleetMorsels)
	}
	if devPruned != st.FleetPruned {
		t.Errorf("per-device pruned sum to %d, total says %d", devPruned, st.FleetPruned)
	}
	if devRows != st.FleetRows {
		t.Errorf("per-device rows sum to %d, total says %d", devRows, st.FleetRows)
	}
	if devSpill != st.FleetSpillBytes {
		t.Errorf("per-device spill sums to %d, total says %d", devSpill, st.FleetSpillBytes)
	}
	if devResident != st.FleetResidentCols {
		t.Errorf("per-device resident cols sum to %d, total says %d", devResident, st.FleetResidentCols)
	}
	// Device 0 participates in every fleet request.
	if devRequests != st.FleetRequests {
		t.Errorf("busiest device served %d requests, fleet served %d", devRequests, st.FleetRequests)
	}
	if len(st.FleetDevices) != 4 {
		t.Errorf("%d device rows, want 4 (largest fleet seen)", len(st.FleetDevices))
	}
	if devSeconds <= 0 {
		t.Error("per-device simulated seconds not accumulated")
	}
	if st.FleetSpillBytes != 0 {
		t.Error("32 GB fleet devices spilled at test scale")
	}
}

// TestFleetSpillServedWarm exercises the spill + residency path end to
// end at every capacity: with device memory constrained, a packed fleet
// request ships the spilled ranges of the columns outside the snapshot's
// resident set — all of them with nothing resident, fewer with a strict
// subset, none at the V100's capacity — and the first and the tenth
// identical request after a dataset swap price bit-equal, the tenth from
// the result cache.
func TestFleetSpillServedWarm(t *testing.T) {
	ds := testData()
	ctx := context.Background()
	q, _ := queries.ByID("q1.1")
	refs := q.ReferencedFactColumns()
	req := Request{QueryID: "q1.1", Engine: "gpu", GPUs: 2, Packed: true}
	var prev int64
	for i, c := range residencyCases(ds.Pack()) {
		s := New(ds, "v1", Options{Workers: 2, FleetDeviceMemoryBytes: 1, DeviceCacheBytes: c.capacity})
		before, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		s.SetDataset("v2", testData())
		var first, tenth Response
		for n := 1; n <= 10; n++ {
			if tenth, err = s.Do(ctx, req); err != nil {
				t.Fatal(err)
			}
			if n == 1 {
				first = tenth
			}
		}
		if first.ResultCached || !tenth.ResultCached {
			t.Errorf("%s: first cached=%v, tenth cached=%v; want a miss, then a hit", c.name, first.ResultCached, tenth.ResultCached)
		}
		for _, r := range []Response{before, tenth} {
			if r.SimSeconds != first.SimSeconds || r.TransferBytes != first.TransferBytes || r.ResidentCols != first.ResidentCols {
				t.Errorf("%s: %.12fs / %d bytes / %d cols, the first after the swap %.12fs / %d / %d", c.name,
					r.SimSeconds, r.TransferBytes, r.ResidentCols, first.SimSeconds, first.TransferBytes, first.ResidentCols)
			}
		}
		switch {
		case i == 0 && (first.TransferBytes == 0 || first.ResidentCols != 0):
			t.Errorf("%s: %d bytes, %d resident cols; 1-byte devices must spill every column", c.name, first.TransferBytes, first.ResidentCols)
		case i == 1 && (first.TransferBytes >= prev || first.ResidentCols != 2):
			t.Errorf("%s: %d bytes (nothing resident ships %d), %d resident cols, want 2", c.name, first.TransferBytes, prev, first.ResidentCols)
		case i == 2 && (first.TransferBytes != 0 || first.ResidentCols != 2*len(refs)):
			t.Errorf("%s: %d bytes, %d resident cols; want none shipped, %d resident", c.name, first.TransferBytes, first.ResidentCols, 2*len(refs))
		}
		prev = first.TransferBytes
		queriestest.SameRows(t, c.name, first.Result, before.Result)

		// Spill traffic and elisions land in the fleet counters, not in the
		// coprocessor's PCIe line (that would double-report the bytes).
		if st := s.Stats(); st.TransferBytes != 0 || st.ResidentCols != 0 {
			t.Errorf("%s: fleet spill leaked into coprocessor counters: %d bytes / %d cols",
				c.name, st.TransferBytes, st.ResidentCols)
		} else if st.FleetSpillBytes != 11*first.TransferBytes || st.FleetResidentCols != 11*int64(first.ResidentCols) {
			t.Errorf("%s: fleet counters %d bytes / %d cols elided, want 11 answers' worth", c.name,
				st.FleetSpillBytes, st.FleetResidentCols)
		}

		// Plain fleet runs on the same constrained service still spill, and
		// cache like every other answer.
		plain, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: "gpu", GPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		again, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: "gpu", GPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if plain.TransferBytes == 0 || plain.ResidentCols != 0 || !again.ResultCached {
			t.Errorf("%s: plain constrained fleet shipped %d bytes with %d resident cols, repeat cached=%v",
				c.name, plain.TransferBytes, plain.ResidentCols, again.ResultCached)
		}
		s.Close()
	}
}

// TestFleetPackedNoSpillCached: device memory large enough that nothing
// spills — the response ships nothing and counts no resident column, and
// caches like any other.
func TestFleetPackedNoSpillCached(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2, FleetDeviceMemoryBytes: 1 << 40})
	defer s.Close()
	ctx := context.Background()
	req := Request{QueryID: "q1.1", Engine: "gpu", GPUs: 2, Packed: true}

	first, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.TransferBytes != 0 || first.ResidentCols != 0 {
		t.Fatalf("huge devices spilled: %d bytes / %d cols", first.TransferBytes, first.ResidentCols)
	}
	second, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.ResultCached {
		t.Error("residency-independent packed fleet response missed the result cache")
	}
	queriestest.SameRun(t, "cached no-spill packed fleet", second.Result, first.Result)
}

// TestFleetPartitionsClamped: partition counts beyond the tile count
// execute the same shard map and must share one cache entry.
func TestFleetPartitionsClamped(t *testing.T) {
	s := New(testData(), "v1", Options{Workers: 2}) // 4096 rows = 2 tiles
	defer s.Close()
	ctx := context.Background()

	base, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: "gpu", GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	over, err := s.Do(ctx, Request{QueryID: "q1.1", Engine: "gpu", GPUs: 2, Partitions: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !over.ResultCached {
		t.Error("over-clamped partition count did not share the effective shape's entry")
	}
	if over.Request.Partitions != 2 {
		t.Errorf("echoed partitions = %d, want the effective 2", over.Request.Partitions)
	}
	queriestest.SameRun(t, "clamped partitions replay", over.Result, base.Result)
}
