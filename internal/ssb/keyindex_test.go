package ssb

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestKeyIndexForms: each form of the index — keys that are their row plus
// a constant, keys dense enough for a range table, any other key set —
// answers every key with its row and every absent key, in and around the
// range and at the int32 extremes, with -1, exactly as a map does. The
// generated dimensions take the form their keys call for, and only the
// identity form reports itself to Identity, spanning every key.
func TestKeyIndexForms(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	identity := []int32{math.MaxInt32 - 1, math.MaxInt32, math.MinInt32, math.MinInt32 + 1}
	gaps := make([]int32, 500)
	for i := range gaps {
		gaps[i] = int32(3*i - 700)
	}
	r.Shuffle(len(gaps), func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	sparse := make([]int32, 300)
	for i := range sparse {
		sparse[i] = int32(r.Uint32())
	}
	sparse[0], sparse[1] = math.MinInt32, math.MaxInt32
	for _, c := range []struct {
		name string
		keys []int32
		form string
	}{
		{"empty", nil, "identity"},
		{"one", []int32{-9}, "identity"},
		{"wrapping", identity, "identity"},
		{"customer", GenCustomer(1).Key, "identity"},
		{"date", GenDate().Key, "table"},
		{"shuffled gaps", gaps, "table"},
		{"sparse", sparse, "map"},
	} {
		x, err := newKeyIndex(c.keys)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		form := "identity"
		if x.rows != nil {
			form = "table"
		} else if x.other != nil {
			form = "map"
		}
		if form != c.form {
			t.Errorf("%s: indexed as %s, want %s", c.name, form, c.form)
		}
		if lo, span, ok := x.Identity(); ok != (form == "identity") || ok && (lo != x.lo || int(span) != len(c.keys)) {
			t.Errorf("%s: Identity() = %d, %d, %v as %s over %d keys", c.name, lo, span, ok, form, len(c.keys))
		}
		want := map[int32]int{}
		probe := []int32{0, 1, -1, math.MinInt32, math.MaxInt32}
		for i, k := range c.keys {
			want[k] = i
			probe = append(probe, k, k-1, k+1)
		}
		for _, k := range probe {
			w, ok := want[k]
			if !ok {
				w = -1
			}
			if got := x.Row(k); got != w {
				t.Fatalf("%s: Row(%d) = %d, want %d", c.name, k, got, w)
			}
		}
	}
}

// TestReadRefusesDuplicateKeys: a dimension key is the table's primary key,
// so Read refuses a dimension whose key column repeats a key (on such data
// the join answered the first passing row and Reference the last).
func TestReadRefusesDuplicateKeys(t *testing.T) {
	ds := GenerateRows(64)
	ds.Part.Key = append([]int32(nil), ds.Part.Key...)
	ds.Part.Key[1] = ds.Part.Key[0]
	var buf bytes.Buffer
	if err := ds.write(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Read(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err == nil || !strings.Contains(err.Error(), "dimension part: key 1 repeats at rows 0 and 1") {
		t.Fatalf("Read of a repeated part key: err = %v", err)
	}
}

// TestIndexFollowsKey: a recorded index answers for the Key it was built
// from; a Dim whose Key was replaced since, or a literal with none
// recorded, is indexed anew, and refused when a key repeats.
func TestIndexFollowsKey(t *testing.T) {
	d := GenSupplier(1)
	if x, err := d.Index(); err != nil || x != d.index {
		t.Fatalf("generated supplier: Index = %p, %v; recorded %p", x, err, d.index)
	}
	d.Key = []int32{7, 5}
	x, err := d.Index()
	if err != nil || x == d.index || x.Row(5) != 1 || x.Row(1) != -1 {
		t.Fatalf("replaced Key: Index = %+v, %v", x, err)
	}
	lit := Dim{Name: "lit", Key: []int32{40, 10, 20}}
	if x, err := lit.Index(); err != nil || x.Row(20) != 2 || x.Row(30) != -1 {
		t.Fatalf("literal: Index = %+v, %v", x, err)
	}
	lit.Key[2] = 40
	if _, err := lit.Index(); err == nil || err.Error() != "ssb: dimension lit: key 40 repeats at rows 0 and 2" {
		t.Fatalf("repeated key: Index error = %v", err)
	}
}
