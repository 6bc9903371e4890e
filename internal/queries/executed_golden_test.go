package queries

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/sched"
	"crystal/internal/ssb"
	"crystal/internal/trace"
)

// executedGoldenPath holds the executed simulated seconds of every shape of
// executedGoldenStatements on executedGoldenLayouts: the six engines through
// ScheduleEngine, fleets of 2 and 4 GPUs and the default hybrid split on
// both interconnects. Floats are IEEE-754 bits. The file has no update flag:
// a change that leaves the model alone must reproduce it byte for byte, and
// a deliberate model change regenerates it from executedGoldenLines.
const executedGoldenPath = "testdata/executed.golden"

// executedGoldenStatements is the 13-query catalog plus 32 generated
// statements with the extended surface (multi-aggregate lists, ORDER BY,
// LIMIT).
func executedGoldenStatements(ds *ssb.Dataset) []Query {
	qs := All()
	r := rand.New(rand.NewSource(39))
	for i := range 32 {
		qs = append(qs, RandomQuery(r, ds, i, GenOptions{Extended: true}))
	}
	return qs
}

// executedGoldenLayout is one data configuration of the golden matrix.
type executedGoldenLayout struct {
	name   string
	ds     *ssb.Dataset
	packed *ssb.PackedFact
	parts  int
}

// executedGoldenLayouts are plain and packed at 1 and 7 morsels over a table
// whose last tile is partial, plus a copy clustered on the order date whose
// zone maps prune morsels, plain and packed at 16.
func executedGoldenLayouts() []executedGoldenLayout {
	ds := ssb.GenerateRows(12*ssb.MorselAlign + 777)
	pf := ds.Pack()
	clustered := ds.ClusterBy("orderdate")
	cpf := clustered.Pack()
	return []executedGoldenLayout{
		{"plain/1", ds, nil, 1},
		{"packed/1", ds, pf, 1},
		{"plain/7", ds, nil, 7},
		{"packed/7", ds, pf, 7},
		{"clustered-plain/16", clustered, nil, 16},
		{"clustered-packed/16", clustered, cpf, 16},
	}
}

// executedGoldenLine renders one scheduled run: the result's seconds,
// transfer and pruning, the merge traffic, and per executor its seconds,
// kernel seconds, scanned rows and pruned morsels.
func executedGoldenLine(label string, sr *ScheduledResult) string {
	var b strings.Builder
	res := sr.Result
	fmt.Fprintf(&b, "%s seconds=%016x transfer=%d merge=%d pruned=%d",
		label, math.Float64bits(res.Seconds), res.TransferBytes, sr.MergeBytes, res.Pruned)
	kernels := map[string]float64{}
	for _, sp := range sr.Trace.Children {
		if sp.Phase != trace.PhaseExecute {
			continue
		}
		for _, c := range sp.Children {
			if c.Phase == trace.PhaseKernel {
				kernels[sp.Name] = c.Sim
			}
		}
	}
	for _, er := range sr.Executors {
		name := sched.Label(er.Kind, er.Device)
		k, ok := kernels[name]
		kernel := "-"
		if ok {
			kernel = fmt.Sprintf("%016x", math.Float64bits(k))
		}
		fmt.Fprintf(&b, " %s[%016x kernel=%s rows=%d pruned=%d]",
			name, math.Float64bits(er.Seconds), kernel, er.Rows, er.Pruned)
	}
	return b.String()
}

// executedGoldenLines runs every golden configuration.
func executedGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, lay := range executedGoldenLayouts() {
		for _, q := range executedGoldenStatements(lay.ds) {
			if err := q.Validate(); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			p := Compile(lay.ds, q)
			opts := RunOptions{Partition: PartitionOptions{Partitions: lay.parts, Packed: lay.packed}, Trace: true}
			run := func(shape string, s sched.Schedule, err error) {
				if err != nil {
					t.Fatalf("%s %s %s: %v", lay.name, q.ID, shape, err)
				}
				sr, err := p.RunScheduled(s)
				if err != nil {
					t.Fatalf("%s %s %s: %v", lay.name, q.ID, shape, err)
				}
				lines = append(lines, executedGoldenLine(lay.name+" "+q.ID+" "+shape, sr))
			}
			for _, e := range Engines() {
				run(string(e), p.ScheduleEngine(e, opts), nil)
			}
			for _, link := range []fleet.Interconnect{fleet.PCIe(), fleet.NVLink()} {
				for _, gpus := range []int{2, 4} {
					s, err := p.ScheduleFleet(fleet.Spec{GPUs: gpus, Link: link}, opts)
					run(fmt.Sprintf("fleet%d/%s", gpus, link.Name), s, err)
				}
				s, _, err := p.ScheduleHybrid(fleet.Spec{GPUs: 2, Link: link}, -1, opts)
				run("hybrid/"+link.Name, s, err)
			}
		}
	}
	return lines
}

// TestExecutedSecondsGolden pins the executed simulated seconds of every
// engine and placement to the recorded bits: a change to how a pass is
// executed or metered that leaves the model alone must not move one of them.
func TestExecutedSecondsGolden(t *testing.T) {
	f, err := os.Open(executedGoldenPath)
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
	got := executedGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d executed lines, golden file has %d", len(got), len(want))
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
		t.Errorf("%d of %d executed lines differ from %s", bad, len(got), executedGoldenPath)
	}
}
