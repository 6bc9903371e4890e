package crystal

import (
	"math/rand"
	"testing"

	"crystal/internal/pack"
)

// TestBlockLoadPackedValuesAndTraffic: the packed tile load decodes exactly
// the plain values and charges the tile's packed bytes — width/32 of the
// plain traffic.
func TestBlockLoadPackedValuesAndTraffic(t *testing.T) {
	const n = 2048
	vals := make([]int32, n)
	rng := rand.New(rand.NewSource(9))
	for i := range vals {
		vals[i] = rng.Int31n(1 << 10) // 10-bit frame
	}
	col := pack.NewFrames(vals, n)
	b := testBlock(t, n)
	items := make([]int32, n)
	if m := BlockLoadPacked(b, col, items); m != n {
		t.Fatalf("loaded %d of %d", m, n)
	}
	for i := range vals {
		if items[i] != vals[i] {
			t.Fatalf("decoded value %d wrong", i)
		}
	}
	wantBytes := col.Bytes()
	if got := b.Pass().BytesRead; got != wantBytes {
		t.Errorf("packed load charged %d bytes, want %d", got, wantBytes)
	}
	if plain := int64(n) * 4; wantBytes*3 > plain {
		t.Errorf("10-bit frame should read under a third of plain: %d vs %d", wantBytes, plain)
	}
}

// TestBlockLoadPackedConstantFrame: a width-0 frame decodes its constant
// and charges nothing — the value is metadata, not storage.
func TestBlockLoadPackedConstantFrame(t *testing.T) {
	const n = 512
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = 77
	}
	col := pack.NewFrames(vals, n)
	b := testBlock(t, n)
	items := make([]int32, n)
	BlockLoadPacked(b, col, items)
	if items[0] != 77 || items[n-1] != 77 {
		t.Error("constant frame decoded wrong")
	}
	if b.Pass().BytesRead != 0 {
		t.Errorf("constant frame charged %d bytes", b.Pass().BytesRead)
	}
}
