package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	sqlfe "crystal/internal/sql"
	"crystal/internal/ssb"
)

// tiny divides every workload's row count down to a single tile, so the
// real constructors run in milliseconds.
const tiny = 1 << 10

var testDS = ssb.GenerateRows(ssb.MorselAlign)

// render spells out the first n requests of a stream.
func render(t *testing.T, w *workload, seed int64, n int) string {
	t.Helper()
	ts, order, err := w.build(rand.New(rand.NewSource(seed)), testDS)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%+v\n", ts[order[i%len(order)]].req)
	}
	return b.String()
}

func TestStreamFollowsSeed(t *testing.T) {
	for _, w := range workloads(tiny) {
		a, again, b := render(t, w, 1, 512), render(t, w, 1, 512), render(t, w, 2, 512)
		if a != again {
			t.Errorf("%s: the same seed gave two different streams", w.name)
		}
		if a == b {
			t.Errorf("%s: two seeds gave the same stream", w.name)
		}
	}
}

func TestRespellBindsAlike(t *testing.T) {
	stmts, err := randomStatements(rand.New(rand.NewSource(3)), testDS, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		r := respell(s)
		if r == s {
			t.Errorf("respelling left the statement unchanged:\n%s", s)
		}
		q1, err1 := sqlfe.Compile(s)
		q2, err2 := sqlfe.Compile(r)
		if err1 != nil || err2 != nil {
			t.Fatalf("compile: %v / %v\n%s\n%s", err1, err2, s, r)
		}
		if q1.Canonical() != q2.Canonical() {
			t.Errorf("respelling binds differently:\n%s\n%s", s, r)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 99.9: 100} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", q, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g, want 1, 4", q1, q3)
	}
}

// TestSimulatedSecondsRepeat drives each stream twice with the workload's
// own callers, once for 200 requests and once against the clock as a real
// run does: every reply must pass the row check, and the simulated seconds
// of the stream's head, summed in request order, must repeat to the last bit
// however much of the head the phase itself reached.
func TestSimulatedSecondsRepeat(t *testing.T) {
	for _, w := range workloads(tiny) {
		if w.name == "adhoc_cold" {
			continue // 200 cold statements cost 8 s even on one tile of rows
		}
		var sums [2]float64
		var phases [2]phase
		for i := range sums {
			in, warmed, _, err := setUp(w, 7)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if err := in.verify(warmed); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			stop := issued(200)
			if i == 1 {
				stop = in.until(200 * time.Millisecond)
			}
			phases[i] = in.drive(stop)
			if phases[i].attempted == 0 || phases[i].failed != 0 {
				t.Errorf("%s: attempted %d, failed %d (%s)", w.name, phases[i].attempted, phases[i].failed, phases[i].firstFailure)
			}
			if sums[i], err = in.simHead(); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			in.svc.Close()
		}
		if phases[0].attempted != 200 {
			t.Errorf("%s: a phase of 200 requests issued %d", w.name, phases[0].attempted)
		}
		if phases[1].elapsed < 200*time.Millisecond {
			t.Errorf("%s: a phase of 200 ms ended after %v", w.name, phases[1].elapsed)
		}
		if sums[0] != sums[1] || sums[0] <= 0 {
			t.Errorf("%s: simulated seconds of the stream's head %v and %v", w.name, sums[0], sums[1])
		}
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, []float64{101, 100, 99, 102, 100}, verdictOK},
		{"slower", lower, steady, []float64{120, 121, 119, 120, 122}, verdictRegressed},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 82}, verdictOK},
		{"less throughput", higher, steady, []float64{80, 81, 79, 80, 82}, verdictRegressed},
		{"more throughput", higher, steady, []float64{120, 121, 119, 120, 122}, verdictOK},
		{"noisy", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 125, 95, 105}, verdictUnresolved},
		{"noisy, worse median", lower, steady, []float64{90, 130, 170, 110, 150}, verdictUnresolved},
		{"noisy, every run better", lower, []float64{180, 200, 240, 190, 220}, []float64{80, 100, 120, 90, 110}, verdictOK},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	// write makes a record file of five runs per workload, every metric at
	// base*scale with a 1% wobble, the exact simulated figure at sim.
	write := func(name string, scale, sim float64) string {
		var buf bytes.Buffer
		for _, w := range sp.Workloads {
			for run := 0; run < 5; run++ {
				rec := runRecord{Workload: w.Name, Seed: 1, SimHeadSeconds: sim}
				rec.Correct = true
				rec.Metrics = map[string]metricValue{}
				for _, m := range sp.EndToEnd {
					rec.Metrics[m.Name] = metricValue{Value: 100 * scale * (1 + 0.01*float64(run-2)), Unit: m.Unit}
				}
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(append(line, '\n'))
			}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, double := write("a.jsonl", 1, 0.1), write("b.jsonl", 1, 0.1), write("c.jsonl", 2, 0.1)
	var out bytes.Buffer
	regressed, err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), base, same)
	if err != nil || regressed {
		t.Fatalf("equal sets: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	// One row per workload x end-to-end metric, and per workload the two
	// exact rows: fail_share and sim_head_s.
	if rows, want := strings.Count(out.String(), verdictOK), len(sp.Workloads)*(len(sp.EndToEnd)+2); rows != want {
		t.Errorf("equal sets: %d ok rows, want %d\n%s", rows, want, out.String())
	}
	out.Reset()
	// Doubling every value regresses the lower-is-better metrics only.
	regressed, err = compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), base, double)
	if err != nil || !regressed {
		t.Fatalf("doubled set: regressed=%v err=%v", regressed, err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, " qps ") && strings.Contains(line, verdictRegressed) {
			t.Errorf("doubled throughput reported as a regression: %s", line)
		}
	}
	out.Reset()
	// The simulated clock is exact: one bit of difference regresses, with
	// every bounded metric equal.
	regressed, err = compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), base, write("d.jsonl", 1, math.Nextafter(0.1, 1)))
	if err != nil || !regressed {
		t.Fatalf("simulated seconds one bit apart: regressed=%v err=%v", regressed, err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, verdictRegressed) != strings.Contains(line, " sim_head_s ") {
			t.Errorf("simulated seconds one bit apart: %s", line)
		}
	}
	// Another seed's stream has no counterpart: nothing exact to compare.
	other := strings.ReplaceAll(mustRead(t, same), `"seed":1`, `"seed":2`)
	otherPath := filepath.Join(t.TempDir(), "e.jsonl")
	if err := os.WriteFile(otherPath, []byte(other), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if regressed, err = compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), base, otherPath); err != nil || regressed {
		t.Fatalf("no seed in common: regressed=%v err=%v", regressed, err)
	}
	if rows := strings.Count(out.String(), verdictUnresolved); rows != len(sp.Workloads) {
		t.Errorf("no seed in common: %d unresolved rows, want one per workload\n%s", rows, out.String())
	}
	// A file with a failed request, or with two runs of one stream that
	// disagree on its simulated seconds, does not load.
	failed := strings.Replace(mustRead(t, same), `"failed":0`, `"failed":1`, 1)
	drifted := strings.Replace(mustRead(t, same), `"sim_head_s":0.1`, `"sim_head_s":0.2`, 1)
	for name, content := range map[string]string{"failed": failed, "drifted": drifted} {
		path := filepath.Join(t.TempDir(), name+".jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), base, path); err == nil {
			t.Errorf("%s: the file loaded", name)
		}
	}
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestMetricsMatchSpec(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, defs []metricDef, spec []specMetric) {
		if len(defs) != len(spec) {
			t.Errorf("%s: the harness reports %d metrics, BENCHMARK.json names %d", kind, len(defs), len(spec))
		}
		units := map[string]string{}
		for _, m := range spec {
			units[m.Name] = m.Unit
		}
		for _, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s: metric name %q is not well formed", kind, d.name)
			}
			if unit, ok := units[d.name]; !ok {
				t.Errorf("%s: %s is not in BENCHMARK.json", kind, d.name)
			} else if unit != d.unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", kind, d.name, d.unit, unit)
			}
		}
	}
	same("end_to_end", endToEnd, sp.EndToEnd)
	same("per_layer", perLayer, sp.PerLayer)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads(1) {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("workloads %v, BENCHMARK.json names %v", have, names)
	}
}
