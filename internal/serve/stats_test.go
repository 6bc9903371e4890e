package serve

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// TestRecordStatsAllocatesNothing pins the zero-cost stats hot path: once
// a response's rows exist in the tally, recording another response of the
// same shape allocates nothing — including the placement-routed shape,
// whose executor labels ("gpu0", "gpu1") are built only when their row is
// first inserted.
func TestRecordStatsAllocatesNothing(t *testing.T) {
	s, resps := servedMixedTraffic(t, false)
	gpuArms := func(r *Response) (n int) {
		for _, er := range r.Executors {
			if er.Device >= 0 {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		name string
		is   func(r *Response) bool
	}{
		{"classic", func(r *Response) bool {
			return r.Placement == "" && r.GPUs == 0 && !r.ResultCached && !r.Batched
		}},
		{"fleet", func(r *Response) bool { return r.Placement == "" && r.GPUs == 2 }},
		{"hybrid with two GPU arms", func(r *Response) bool {
			return r.Placement == PlacementHybrid && gpuArms(r) == 2
		}},
		{"cache hit", func(r *Response) bool { return r.ResultCached }},
		{"batched", func(r *Response) bool { return r.Batched }},
	} {
		i := slices.IndexFunc(resps, func(r Response) bool { return c.is(&r) })
		if i < 0 {
			t.Fatalf("mixed traffic served no %s response", c.name)
		}
		resp := resps[i]
		s.recordStats(&resp) // warm-up: the response's rows exist from here on
		if n := testing.AllocsPerRun(100, func() { s.recordStats(&resp) }); n != 0 {
			t.Errorf("recordStats of a %s response: %v allocs, want 0", c.name, n)
		}
	}
}

// TestStatsWireShape pins the /stats JSON that clients read: the key set
// of the snapshot and of each row type. The unexported histograms and
// running sums must never reach the wire, and a dropped or renamed tag
// fails here.
func TestStatsWireShape(t *testing.T) {
	s, _ := servedMixedTraffic(t, false)
	raw, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	checkKeys := func(what string, got map[string]json.RawMessage, want string) {
		t.Helper()
		var keys []string
		for k := range got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		wantKeys := strings.Fields(want)
		slices.Sort(wantKeys)
		if !slices.Equal(keys, wantKeys) {
			t.Errorf("%s keys:\n got %v\nwant %v", what, keys, wantKeys)
		}
	}
	checkKeys("Stats", top, `
		version workers requests named_requests adhoc_requests errors
		shed expired coalesced coalesce_rate pending
		batches batched_requests batch_rate batch_shared_scan_bytes batch_solo_scan_bytes
		partitioned_requests morsels pruned_morsels prune_rate
		packed_requests transfer_bytes resident_cols
		fleet_requests fleet_morsels fleet_pruned fleet_rows fleet_spill_bytes
		fleet_resident_cols fleet_merge_bytes fleet_devices
		placement_requests hybrid_requests hybrid_morsels hybrid_pruned hybrid_rows
		hybrid_ship_bytes hybrid_resident_cols hybrid_merge_bytes hybrid_executors
		device_cache_cap_bytes device_cache_used_bytes device_cache_cols
		resident_hits resident_misses resident_evictions residency_hit_rate
		plan_hits plan_misses plan_hit_rate cached_plans
		result_hits result_misses result_hit_rate cached_results
		engines latency`)
	for _, row := range []struct{ key, want string }{
		{"fleet_devices", "device requests morsels pruned rows spill_bytes resident_cols sim_seconds"},
		{"hybrid_executors", "label kind device requests morsels pruned rows ship_bytes resident_cols sim_seconds"},
		{"engines", "engine alias requests sim_ms wall_ms"},
		{"latency", `engine placement requests wall_p50_ms wall_p95_ms wall_p99_ms
			queue_p50_ms queue_p95_ms queue_p99_ms sim_p50_ms sim_p95_ms sim_p99_ms`},
	} {
		var rows []map[string]json.RawMessage
		if err := json.Unmarshal(top[row.key], &rows); err != nil {
			t.Fatalf("%s: %v", row.key, err)
		}
		if len(rows) == 0 {
			t.Fatalf("mixed traffic left %s empty", row.key)
		}
		for _, r := range rows {
			checkKeys(row.key, r, row.want)
		}
	}
}
