package planner

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/queries"
)

// goldenPath holds every field of HybridCost, FleetCost and BatchCost over
// goldenStatements × {pcie, nvlink} × {plain, packed} × {1, 7, 16} morsels,
// floats as IEEE-754 bits. It was recorded before the planner computed join
// statistics once per call, and any change that leaves the model alone must
// reproduce it byte for byte.
const goldenPath = "testdata/estimates.golden"

// goldenStatements is the 13-query catalog plus 64 generated statements on
// the package dataset (the extended surface: ORDER BY, LIMIT and
// multi-aggregate lists feed the sort terms). About half the generated joins
// carry no dimension filter.
func goldenStatements() []queries.Query {
	qs := queries.All()
	r := rand.New(rand.NewSource(7))
	for i := range 64 {
		qs = append(qs, queries.RandomQuery(r, ds, i, queries.GenOptions{Extended: true}))
	}
	return qs
}

// goldenFields renders every exported field of an estimate struct, floats as
// their bits so that a change in the last place shows.
func goldenFields(v any) string {
	rv := reflect.ValueOf(v)
	var b strings.Builder
	for i := 0; i < rv.NumField(); i++ {
		fmt.Fprintf(&b, " %s=", rv.Type().Field(i).Name)
		switch f := rv.Field(i); f.Kind() {
		case reflect.Float64:
			fmt.Fprintf(&b, "%016x", math.Float64bits(f.Float()))
		case reflect.Slice:
			for j := 0; j < f.Len(); j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%016x", math.Float64bits(f.Index(j).Float()))
			}
		default:
			fmt.Fprintf(&b, "%v", f.Interface())
		}
	}
	return b.String()
}

// goldenLines prices every golden configuration. Batches are consecutive
// runs of four statements, so every statement is priced as a batch member.
func goldenLines(t *testing.T) []string {
	t.Helper()
	qs := goldenStatements()
	pf := ds.Pack()
	var lines []string
	for _, link := range []fleet.Interconnect{fleet.PCIe(), fleet.NVLink()} {
		fl := fleet.Spec{GPUs: 2, Link: link}
		for _, enc := range []string{"plain", "packed"} {
			for _, parts := range []int{1, 7, 16} {
				morsels := ds.Partition(parts)
				packed := pf
				if enc == "plain" {
					packed = nil
				}
				cfg := fmt.Sprintf("%s %s %d", link.Name, enc, parts)
				for _, q := range qs {
					he, err := HybridCost(fl, ds, q, morsels, packed)
					if err != nil {
						t.Fatal(err)
					}
					fe, err := FleetCost(fl, ds, q, morsels, packed)
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines,
						fmt.Sprintf("%s %s hybrid%s", cfg, q.ID, goldenFields(he)),
						fmt.Sprintf("%s %s fleet%s", cfg, q.ID, goldenFields(fe)))
				}
				for lo := 0; lo < len(qs); lo += 4 {
					batch := qs[lo:min(lo+4, len(qs))]
					be, err := BatchCost(fl, ds, batch, morsels, packed)
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines, fmt.Sprintf("%s %s+%d batch%s", cfg, batch[0].ID, len(batch)-1, goldenFields(be)))
				}
			}
		}
	}
	return lines
}

// TestGoldenEstimates pins the planner's placement estimates to the recorded
// bits: computing join statistics once per call instead of once per arm, and
// pricing unfiltered joins without a row loop, must not move one of them.
func TestGoldenEstimates(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d estimate lines, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad < 5 {
				t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d estimate lines differ from %s", bad, len(got), goldenPath)
	}

	// The set must include joins without dimension filters, the case Stats
	// prices without a row loop.
	unfiltered := 0
	for _, q := range goldenStatements() {
		for _, j := range q.Joins {
			if len(j.Filters) == 0 {
				unfiltered++
			}
		}
	}
	if unfiltered == 0 {
		t.Error("no golden statement joins a dimension without filters")
	}
}
