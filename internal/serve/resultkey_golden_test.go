package serve

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"crystal/internal/queries"
	"crystal/internal/ssb"
)

// resultKeyGoldenPath pins the result-cache identity of every request shape:
// the key each request is cached, coalesced and batched under, or the error
// it is refused with. There is no update flag: a deliberate change of cache
// identity regenerates the file from resultKeyGoldenLines and names every
// changed line.
const resultKeyGoldenPath = "testdata/resultkeys.golden"

// The request grid: every engine spelling (empty, each alias, a full name,
// an unknown one), every placement spelling, fleet sizes up to and past
// fleet.MaxGPUs, both links (and the default and an unknown one), and
// partition counts below, at and above the dataset's tile count, plain and
// packed.
var (
	goldenEngines    = []string{"", "gpu", "cpu", "hyper", "monet", "monetdb", "omnisci", "coproc", "Standalone CPU", "tpu"}
	goldenPlacements = []string{"", "auto", "cpu", "gpu", "hybrid", " Hybrid ", "fpga"}
	goldenGPUs       = []int{0, 1, 4, 64, 65}
	goldenLinks      = []string{"", "pcie", "nvlink", "infiniband"}
	goldenPartitions = []int{-1, 0, 2, 16}
)

// goldenKey is the result key prepare computes for req, or its error.
func goldenKey(s *Service, req Request) string {
	req.NoCache = true // a request that leads no flight leaves nothing to release
	var resp Response
	j := s.prepare(&resp, req, time.Now())
	if j == nil {
		return "error: " + resp.Err.Error()
	}
	return j.key
}

// resultKeyGoldenLines renders one line per (engine, placement, GPUs, link)
// with the keys of its eight partition x encoding variants (one outcome when
// all eight agree, as every refusal does), then one line per catalog query
// with its full key. Every catalog query is checked to share each grid
// point's shape half, so the grid lines hold for the whole catalog.
func resultKeyGoldenLines(t *testing.T) []string {
	ds := ssb.GenerateRows(1 << 14) // 8 tiles: partitions 16 clamp, 2 do not
	s := New(ds, "golden", Options{Workers: 1})
	defer s.Close()
	catalog := queries.All()
	prefix := func(q queries.Query) string { return "0\x00" + q.Canonical() + "\x00" }
	render := func(k string) string { return strings.ReplaceAll(k, "\x00", "|") }

	var lines []string
	for _, e := range goldenEngines {
		for _, pl := range goldenPlacements {
			for _, g := range goldenGPUs {
				for _, l := range goldenLinks {
					var labels, halves []string
					for _, n := range goldenPartitions {
						for _, enc := range []string{"plain", "packed"} {
							req := Request{Engine: queries.Engine(e), Placement: pl, GPUs: g, Interconnect: l, Partitions: n, Packed: enc == "packed"}
							var half string
							for i, q := range catalog {
								req.QueryID = q.ID
								k := goldenKey(s, req)
								h := k
								if !strings.HasPrefix(k, "error: ") {
									if !strings.HasPrefix(k, prefix(q)) {
										t.Fatalf("%+v: key %q does not start with the query's generation and canonical form", req, k)
									}
									h = strings.TrimPrefix(k, prefix(q))
								}
								if i == 0 {
									half = h
								} else if h != half {
									t.Fatalf("%+v: shape half %q differs from %s's %q", req, h, catalog[0].ID, half)
								}
							}
							labels = append(labels, fmt.Sprintf("%d/%s=", n, enc))
							halves = append(halves, render(half))
						}
					}
					out, same := halves[0], true
					for _, h := range halves {
						same = same && h == out
					}
					if !same {
						for i := range halves {
							halves[i] = labels[i] + halves[i]
						}
						out = strings.Join(halves, " ")
					}
					lines = append(lines, fmt.Sprintf("engine=%q placement=%q gpus=%d link=%q: %s", e, pl, g, l, out))
				}
			}
		}
	}
	for _, q := range catalog {
		lines = append(lines, q.ID+": "+render(goldenKey(s, Request{QueryID: q.ID, Engine: queries.EngineGPU})))
	}
	return lines
}

// TestResultKeyGolden holds every request shape's result key, and every
// refusal's error text, to the recorded file line for line.
func TestResultKeyGolden(t *testing.T) {
	f, err := os.Open(resultKeyGoldenPath)
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
	got := resultKeyGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d key lines, golden file has %d", len(got), len(want))
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
		t.Errorf("%d of %d key lines differ from %s", bad, len(got), resultKeyGoldenPath)
	}
}
