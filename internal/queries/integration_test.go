package queries

import (
	"path/filepath"
	"testing"

	"crystal/internal/ssb"
)

// TestEnginesOnPersistedDataset is the cross-module integration test: a
// dataset round-trips through the binary columnar format (cmd/datagen's
// path) and every engine must produce the same rows on the loaded copy as
// on the in-memory original.
func TestEnginesOnPersistedDataset(t *testing.T) {
	ds := ssb.GenerateRows(50_000)
	path := filepath.Join(t.TempDir(), "ssb.bin")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ssb.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"q1.1", "q2.1", "q3.3", "q4.2"} {
		q, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		want := Compile(ds, q).Run(EngineGPU)
		for _, e := range Engines() {
			got := Compile(loaded, q).Run(e)
			if !got.Equal(want) {
				t.Errorf("%s on loaded dataset disagrees for %s", e, id)
			}
		}
	}
}

// TestTinyDatasets exercises the degenerate ends every engine must survive:
// single-row fact tables and filters that eliminate everything.
func TestTinyDatasets(t *testing.T) {
	for _, rows := range []int{1, 2, 7} {
		ds := ssb.GenerateRows(rows)
		for _, q := range All() {
			want := Reference(ds, q)
			for _, e := range Engines() {
				got := Compile(ds, q).Run(e)
				if !got.Equal(normalizeRef(q, want)) {
					t.Errorf("%s wrong on %d-row dataset for %s", e, rows, q.ID)
				}
			}
		}
	}
}

// TestDeterministicTiming: the simulator must be deterministic — same
// dataset, same query, same engine, identical simulated time.
func TestDeterministicTiming(t *testing.T) {
	q, _ := ByID("q3.1")
	for _, e := range Engines() {
		a := Compile(testDS, q).Run(e).Seconds
		b := Compile(testDS, q).Run(e).Seconds
		if a != b {
			t.Errorf("%s timing not deterministic: %.9f vs %.9f", e, a, b)
		}
	}
}

// TestAggregateSumsMatchBruteForce cross-checks the packed-group arithmetic
// end to end: the sum over all groups must equal the ungrouped total.
func TestAggregateSumsMatchBruteForce(t *testing.T) {
	q, _ := ByID("q4.1")
	res := Compile(testDS, q).Run(EngineGPU)
	var total int64
	for _, v := range res.Groups {
		total += v
	}
	// Brute force: same filters, no grouping.
	var want int64
	ref := Reference(testDS, q)
	for _, v := range ref.Groups {
		want += v
	}
	if total != want {
		t.Errorf("group sums total %d, brute force %d", total, want)
	}
}
