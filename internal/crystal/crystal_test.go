package crystal

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"crystal/internal/device"
	"crystal/internal/sim"
	"crystal/internal/ssb"
)

func testBlock(t *testing.T, elems int) *sim.Block {
	t.Helper()
	var got *sim.Block
	// Run a single-block grid to obtain a realistic Block context.
	cfg := sim.Config{Threads: 128, ItemsPerThread: (elems + 127) / 128, Elems: elems}
	sim.Run(device.V100(), cfg, func(b *sim.Block) { got = b })
	if got == nil {
		t.Fatal("no block executed")
	}
	return got
}

func TestBlockLoadStoreRoundTrip(t *testing.T) {
	const n = 512
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(i * 3)
	}
	b := testBlock(t, n)
	items := make([]int32, n)
	if got := BlockLoad(b, col, items); got != n {
		t.Fatalf("BlockLoad = %d, want %d", got, n)
	}
	out := make([]int32, n)
	BlockStore(b, items, n, out, 0)
	for i := range col {
		if out[i] != col[i] {
			t.Fatalf("round trip mismatch at %d: %d != %d", i, out[i], col[i])
		}
	}
	if b.Pass().BytesRead != 4*n {
		t.Errorf("BytesRead = %d, want %d", b.Pass().BytesRead, 4*n)
	}
	if b.Pass().BytesWritten != 4*n {
		t.Errorf("BytesWritten = %d, want %d", b.Pass().BytesWritten, 4*n)
	}
}

func TestBlockLoadPartialTile(t *testing.T) {
	col := make([]int32, 100)
	b := testBlock(t, 100) // tile capacity 128, only 100 valid
	items := make([]int32, 128)
	if got := BlockLoad(b, col, items); got != 100 {
		t.Fatalf("partial tile load = %d, want 100", got)
	}
	if b.TileElems == b.Threads*b.ItemsPerThread {
		t.Error("tile of 100/128 should not report full")
	}
}

func TestBlockPredAndScanShuffle(t *testing.T) {
	const n = 1024
	col := make([]int32, n)
	rng := rand.New(rand.NewSource(7))
	for i := range col {
		col[i] = int32(rng.Intn(100))
	}
	b := testBlock(t, n)
	items := make([]int32, n)
	BlockLoad(b, col, items)
	bitmap := make([]uint8, n)
	BlockPred(b, items, n, func(v int32) bool { return v > 50 }, bitmap)

	indices := make([]int32, n)
	total := BlockScan(b, bitmap, n, indices)

	want := 0
	for _, v := range col {
		if v > 50 {
			want++
		}
	}
	if total != want {
		t.Fatalf("scan total = %d, want %d", total, want)
	}

	shuffled := make([]int32, n)
	m := BlockShuffle(b, items, bitmap, indices, n, shuffled)
	if m != want {
		t.Fatalf("shuffle moved %d, want %d", m, want)
	}
	// Shuffle must preserve input order of the matched entries (stability).
	j := 0
	for _, v := range col {
		if v > 50 {
			if shuffled[j] != v {
				t.Fatalf("shuffle order broken at %d", j)
			}
			j++
		}
	}
}

func TestBlockScanMatchesSequentialProperty(t *testing.T) {
	f := func(bits []bool) bool {
		if len(bits) == 0 {
			return true
		}
		if len(bits) > 4096 {
			bits = bits[:4096]
		}
		n := len(bits)
		bitmap := make([]uint8, n)
		for i, v := range bits {
			if v {
				bitmap[i] = 1
			}
		}
		b := testBlockQuick(n)
		indices := make([]int32, n)
		total := BlockScan(b, bitmap, n, indices)
		sum := int32(0)
		for i := 0; i < n; i++ {
			if indices[i] != sum {
				return false
			}
			sum += int32(bitmap[i])
		}
		return total == int(sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func testBlockQuick(elems int) *sim.Block {
	var got *sim.Block
	cfg := sim.Config{Threads: 128, ItemsPerThread: (elems + 127) / 128, Elems: elems}
	sim.Run(device.V100(), cfg, func(b *sim.Block) { got = b })
	return got
}

func TestBlockLoadSelTrafficAndValues(t *testing.T) {
	const n = 1024
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(i)
	}
	b := testBlock(t, n)

	// Sparse selection: one element out of every 64 -> one 128B line each.
	bitmap := make([]uint8, n)
	for i := 0; i < n; i += 64 {
		bitmap[i] = 1
	}
	items := make([]int32, n)
	BlockLoadSel(b, col, bitmap, items)
	for i := 0; i < n; i += 64 {
		if items[i] != col[i] {
			t.Fatalf("selected item %d not loaded", i)
		}
	}
	// 16 selected entries, each on its own 128-byte line (32 int32s/line).
	wantBytes := int64(16 * 128)
	if b.Pass().BytesRead != wantBytes {
		t.Errorf("sparse LoadSel read %d bytes, want %d", b.Pass().BytesRead, wantBytes)
	}

	// Dense selection must not exceed a full-tile read by more than a line.
	b2 := testBlock(t, n)
	for i := range bitmap {
		bitmap[i] = 1
	}
	BlockLoadSel(b2, col, bitmap, items)
	if b2.Pass().BytesRead > 4*n+128 {
		t.Errorf("dense LoadSel read %d bytes, want <= %d", b2.Pass().BytesRead, 4*n)
	}
}

func TestHashTableBasic(t *testing.T) {
	ht := NewHashTable(100, 0.5, true)
	if ht.Capacity() < 200 {
		t.Errorf("capacity %d too small for 50%% fill of 100", ht.Capacity())
	}
	for i := int32(0); i < 100; i++ {
		ht.Insert(i*7, i)
	}
	for i := int32(0); i < 100; i++ {
		v, ok := ht.Get(i * 7)
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v want %d", i*7, v, ok, i)
		}
	}
	if _, ok := ht.Get(999999); ok {
		t.Error("found absent key")
	}
	if ht.Bytes() != int64(ht.Capacity())*8 {
		t.Errorf("Bytes = %d", ht.Bytes())
	}
	if ht.String() == "" {
		t.Error("empty String")
	}
}

func TestHashTableKeyOnly(t *testing.T) {
	ht := NewHashTable(10, 0.5, false)
	ht.Insert(42, 0)
	if _, ok := ht.Get(42); !ok {
		t.Error("key-only table lost key")
	}
	if ht.Bytes() != int64(ht.Capacity())*4 {
		t.Errorf("key-only Bytes = %d, want 4/slot", ht.Bytes())
	}
}

func TestHashTableInsertPanicsOnSentinel(t *testing.T) {
	for name, insert := range map[string]func(*HashTable){
		"Insert": func(h *HashTable) { h.Insert(EmptyKey, 0) },
		"Put":    func(h *HashTable) { h.Put(EmptyKey, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of EmptyKey should panic", name)
				}
			}()
			insert(NewHashTable(4, 0.5, true))
		}()
	}
}

// TestHashTableGetMissesSentinel: a table never holds EmptyKey, so probing
// for it misses — on an empty slot the sentinel would otherwise equal the
// probe key and answer a hit.
func TestHashTableGetMissesSentinel(t *testing.T) {
	for _, payload := range []bool{false, true} {
		h := NewHashTable(4, 0.5, payload)
		h.Put(3, 7)
		if v, ok := h.Get(EmptyKey); ok {
			t.Errorf("payload=%v: Get(EmptyKey) = (%d, true) on a table holding only 3", payload, v)
		}
		if _, ok := h.Get(3); !ok {
			t.Errorf("payload=%v: Get(3) missed", payload)
		}
	}
}

// TestPutMatchesInsert: the single-writer Put lays a table out exactly as
// sequential Inserts do, so both answer every Get alike — on dense keys,
// yyyymmdd keys, duplicates (later copies probe past the first) and random
// keys, with and without payloads.
func TestPutMatchesInsert(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	dense := make([]int32, 3000)
	for i := range dense {
		dense[i] = int32(i + 1)
	}
	dates := ssb.GenDate().Key
	dups := make([]int32, 2000)
	for i := range dups {
		dups[i] = int32(r.Intn(300))
	}
	random := make([]int32, 2000)
	for i := range random {
		random[i] = int32(r.Uint32())
		if random[i] == EmptyKey {
			random[i] = 0
		}
	}
	for name, keys := range map[string][]int32{"dense": dense, "yyyymmdd": dates, "duplicate": dups, "random": random} {
		lo, hi := slices.Min(keys), slices.Max(keys)
		for _, payload := range []bool{false, true} {
			label := fmt.Sprintf("%s keys, payload=%v", name, payload)
			ins, put := NewHashTable(len(keys), 0.99, payload), NewHashTable(len(keys), 0.99, payload)
			for i, k := range keys {
				ins.Insert(k, int32(i))
				put.Put(k, int32(i))
			}
			if !reflect.DeepEqual(ins, put) {
				t.Errorf("%s: Put and Insert laid the table out differently", label)
			}
			for _, k := range append(slices.Clone(keys), lo-1, hi+1, 0, -5) {
				vi, oki := ins.Get(k)
				vp, okp := put.Get(k)
				if vi != vp || oki != okp {
					t.Fatalf("%s: Get(%d) = %d,%v after Insert, %d,%v after Put", label, k, vi, oki, vp, okp)
				}
			}
		}
	}
}

func TestHashTableConcurrentBuild(t *testing.T) {
	const n = 10000
	ht := NewHashTable(n, 0.5, true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				ht.Insert(int32(i), int32(i*2))
			}
		}(w)
	}
	wg.Wait()
	for i := int32(0); i < n; i++ {
		v, ok := ht.Get(i)
		if !ok || v != i*2 {
			t.Fatalf("concurrent build lost key %d", i)
		}
	}
}

func TestHashTableBytesSweep(t *testing.T) {
	for _, want := range []int64{8 << 10, 1 << 20, 64 << 20} {
		ht := NewHashTableBytes(want)
		if ht.Bytes() != want {
			t.Errorf("NewHashTableBytes(%d).Bytes() = %d", want, ht.Bytes())
		}
	}
}

func TestHashTableGetProperty(t *testing.T) {
	f := func(keys []int32) bool {
		ht := NewHashTable(len(keys)+1, 0.5, true)
		ref := map[int32]int32{}
		for i, k := range keys {
			if k == EmptyKey {
				continue
			}
			if _, dup := ref[k]; dup {
				continue
			}
			ht.Insert(k, int32(i))
			ref[k] = int32(i)
		}
		for k, want := range ref {
			if v, ok := ht.Get(k); !ok || v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBlockLookup(t *testing.T) {
	ht := NewHashTable(64, 0.5, true)
	for i := int32(0); i < 64; i++ {
		ht.Insert(i, i*10)
	}
	const n = 128
	keys := make([]int32, n)
	bitmap := make([]uint8, n)
	for i := range keys {
		keys[i] = int32(i) // upper half misses
		bitmap[i] = 1
	}
	bitmap[0] = 0 // pre-filtered entry must not be probed
	b := testBlock(t, n)
	vals := make([]int32, n)
	matched := BlockLookup(b, ht, keys, n, bitmap, vals, false)
	if matched != 63 {
		t.Fatalf("matched = %d, want 63", matched)
	}
	for i := 1; i < 64; i++ {
		if bitmap[i] != 1 || vals[i] != int32(i*10) {
			t.Fatalf("hit %d lost: bit=%d val=%d", i, bitmap[i], vals[i])
		}
	}
	for i := 64; i < n; i++ {
		if bitmap[i] != 0 {
			t.Fatalf("miss %d kept its bit", i)
		}
	}
	ps := b.Pass().Probes
	if len(ps) != 1 || ps[0].Count != 127 {
		t.Fatalf("probe metering wrong: %+v", ps)
	}
	if ps[0].StructBytes != ht.Bytes() {
		t.Errorf("probe struct bytes = %d, want %d", ps[0].StructBytes, ht.Bytes())
	}
}

func TestBuildKernel(t *testing.T) {
	const n = 5000
	keys := make([]int32, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i], vals[i] = int32(i+1), int32(i*2)
	}
	ht := NewHashTable(n, 0.5, true)
	pass := sim.Run(device.V100(), sim.DefaultConfig(n), func(b *sim.Block) {
		BuildKernel(b, ht, keys, vals)
	})
	for i := int32(1); i <= n; i++ {
		v, ok := ht.Get(i)
		if !ok || v != (i-1)*2 {
			t.Fatalf("build lost key %d", i)
		}
	}
	if pass.BytesRead != 8*n {
		t.Errorf("build read %d bytes, want %d", pass.BytesRead, 8*n)
	}
	var writes int64
	for _, p := range pass.Probes {
		if p.Writes {
			writes += p.Count
		}
	}
	if writes != n {
		t.Errorf("build random writes = %d, want %d", writes, n)
	}
}

// TestAggTable accumulates a single SUM — a MultiAggTable of one SlotAdd —
// from eight goroutines and reads it back through the one-slot face.
func TestAggTable(t *testing.T) {
	at := NewAggTable(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				at.t.Update(int64(i%10), []int64{1})
			}
		}()
	}
	wg.Wait()
	if at.t.Groups() != 10 {
		t.Fatalf("groups = %d, want 10", at.t.Groups())
	}
	var keys []int64
	at.Each(func(k, sum int64) {
		keys = append(keys, k)
		if sum != 800 {
			t.Errorf("group %d sum = %d, want 800", k, sum)
		}
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("unexpected group keys %v", keys)
		}
	}
	if at.Bytes() <= 0 {
		t.Error("agg table bytes")
	}
}

// parentAggSlots is the capacity rule both tables had before the physical
// arrays were separated from it: the smallest power of two, at least 2, that
// holds n groups at 50% fill.
func parentAggSlots(n int) int64 {
	c := int64(2)
	for c < 2*int64(n) {
		c <<= 1
	}
	return c
}

// TestAggTableBytesAreModelled pins the modelled footprint: Bytes() is what
// prices every aggregation probe, so for every estimate it must be exactly
// what the table reported when its arrays were that large — whatever the
// arrays hold now.
func TestAggTableBytesAreModelled(t *testing.T) {
	for n := 1; n <= 1<<21; n++ {
		if got, want := int64(modelledSlots(n)), parentAggSlots(n); got != want {
			t.Fatalf("modelledSlots(%d) = %d, want %d", n, got, want)
		}
	}
	// The tables themselves: every small estimate, then each power of two
	// and its neighbours.
	ops := []SlotOp{SlotAdd, SlotMin, SlotAdd}
	estimates := []int{}
	for n := 1; n <= 1024; n++ {
		estimates = append(estimates, n)
	}
	for p := 2048; p <= 1<<21; p <<= 1 {
		estimates = append(estimates, p-1, p, p+1)
	}
	for _, n := range estimates {
		want := parentAggSlots(n)
		if got := NewAggTable(n).Bytes(); got != want*16 {
			t.Fatalf("NewAggTable(%d).Bytes() = %d, want %d", n, got, want*16)
		}
		if got := NewMultiAggTable(n, ops).Bytes(); got != want*(8+8*3) || got != MultiAggTableBytes(n, len(ops)) {
			t.Fatalf("NewMultiAggTable(%d).Bytes() = %d, want %d and MultiAggTableBytes", n, got, want*(8+8*3))
		}
	}
	big := NewAggTable(1 << 20)
	if len(big.t.keys) != aggInitialSlots {
		t.Errorf("a table modelled at %d slots starts with %d physical ones, want %d", modelledSlots(1<<20), len(big.t.keys), aggInitialSlots)
	}
	if small := NewAggTable(3); len(small.t.keys) != 8 {
		t.Errorf("a table modelled at 8 slots starts with %d physical ones", len(small.t.keys))
	}
}

// TestAggTablesGrowUnderContention drives a one-slot and a three-slot table
// far past their physical (and, in the first case, modelled) capacity from several
// goroutines at once: the table grows instead of spinning on a full
// array, every accumulator is exact, Groups is exact, Each visits each key
// once, and Bytes still reports the estimate.
func TestAggTablesGrowUnderContention(t *testing.T) {
	ops := []SlotOp{SlotAdd, SlotMin, SlotMax}
	for _, tc := range []struct{ estimate, keys, workers int }{
		{estimate: 1, keys: 10_000, workers: 8},
		{estimate: aggInitialSlots / 2, keys: 1 << 14, workers: max(runtime.GOMAXPROCS(0), 2)},
	} {
		sum, multi := NewMultiAggTable(tc.estimate, ops[:1]), NewMultiAggTable(tc.estimate, ops)
		sumBytes, multiBytes := sum.Bytes(), multi.Bytes()
		var wg sync.WaitGroup
		for w := 0; w < tc.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < tc.keys; i++ {
					// Every worker walks the key space from its own offset.
					k := int64((i + w*tc.keys/tc.workers) % tc.keys)
					sum.Update(k, []int64{int64(w + 1)})
					multi.Update(k, []int64{int64(w + 1), k*100 + int64(w), k*100 + int64(w)})
				}
			}(w)
		}
		wg.Wait()

		wantSum := int64(tc.workers * (tc.workers + 1) / 2)
		seen := make([]int, tc.keys)
		sum.Each(func(k int64, acc []int64) {
			seen[k]++
			if len(acc) != 1 || acc[0] != wantSum {
				t.Errorf("estimate %d: sum[%d] = %v, want [%d]", tc.estimate, k, acc, wantSum)
			}
		})
		multi.Each(func(k int64, acc []int64) {
			seen[k]++
			if acc[0] != wantSum || acc[1] != k*100 || acc[2] != k*100+int64(tc.workers-1) {
				t.Errorf("estimate %d: acc[%d] = %v", tc.estimate, k, acc)
			}
		})
		for k, c := range seen {
			if c != 2 {
				t.Fatalf("estimate %d: key %d visited %d times across the two tables, want once each", tc.estimate, k, c)
			}
		}
		if sum.Groups() != tc.keys || multi.Groups() != tc.keys {
			t.Errorf("estimate %d: groups = %d / %d, want %d", tc.estimate, sum.Groups(), multi.Groups(), tc.keys)
		}
		if sum.Bytes() != sumBytes || multi.Bytes() != multiBytes {
			t.Errorf("estimate %d: Bytes moved with occupancy: %d -> %d, %d -> %d",
				tc.estimate, sumBytes, sum.Bytes(), multiBytes, multi.Bytes())
		}
	}
}

func TestAggTableReservedKeyPanics(t *testing.T) {
	ops := []SlotOp{SlotAdd}
	for name, update := range map[string]func(){
		"MultiAggTable.Update": func() { NewMultiAggTable(4, ops).Update(aggEmpty, []int64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted the reserved key", name)
				}
			}()
			update()
		}()
	}
}
