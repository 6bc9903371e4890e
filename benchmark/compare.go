package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// spec is BENCHMARK.json, as far as the harness reads it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// streamKey names a request stream: a workload's, drawn from one seed.
type streamKey struct {
	workload string
	seed     int64
}

// recordSet is one record file: the untraced runs' values by workload and
// metric, and every stream's exact simulated figure, sim_head_s.
type recordSet struct {
	values map[string]map[string][]float64
	heads  map[streamKey]float64
}

// readRecords loads a record file. A file holds correct runs only, and all
// runs of one stream must agree on its simulated seconds to the last bit.
func readRecords(path string) (*recordSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &recordSet{values: map[string]map[string][]float64{}, heads: map[streamKey]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Correct || rec.Failed != 0 {
			return nil, fmt.Errorf("%s:%d: run of %s (seed %d) was not correct (%d of %d requests failed); it cannot be compared",
				path, line, rec.Workload, rec.Seed, rec.Failed, rec.Attempted)
		}
		key := streamKey{rec.Workload, rec.Seed}
		if first, ok := set.heads[key]; ok && first != rec.SimHeadSeconds {
			return nil, fmt.Errorf("%s:%d: run of %s (seed %d) has sim_head_s %v, an earlier run %v: simulated time must repeat exactly",
				path, line, rec.Workload, rec.Seed, rec.SimHeadSeconds, first)
		}
		set.heads[key] = rec.SimHeadSeconds
		if rec.Trace {
			continue // per-layer metrics have no bound to apply
		}
		if set.values[rec.Workload] == nil {
			set.values[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			set.values[rec.Workload][name] = append(set.values[rec.Workload][name], v.Value)
		}
	}
	return set, sc.Err()
}

// Verdicts of one workload x metric pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's bound to two sets of runs, a the base. The
// pair regresses when b's median is worse than a's by more than the bound.
// When either side's own spread is wider than the bound the medians cannot
// settle it: the pair is unresolved, unless every run of b reads better
// than every run of a.
func judge(m specMetric, a, b []float64) (verdict string, ratio float64) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = (ma - mb) / ma
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if m.Better == "higher" {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if !allBetter {
			return verdictUnresolved, ratio
		}
		return verdictOK, ratio
	}
	if worse > m.Bound {
		return verdictRegressed, ratio
	}
	return verdictOK, ratio
}

// judgeExact compares the exact simulated figure of every stream of one
// workload that both sides ran. Any difference is a regression, whichever
// way it points: the simulated clock is the model's, and a change to the
// host code must not move it.
func judgeExact(workload string, a, b map[streamKey]float64) (verdict string, streams int, ha, hb float64) {
	verdict = verdictUnresolved // until a stream in common is found
	for key, x := range a {
		y, ok := b[key]
		if key.workload != workload || !ok {
			continue
		}
		streams++
		if x != y {
			return verdictRegressed, streams, x, y
		}
		verdict, ha, hb = verdictOK, x, y
	}
	return verdict, streams, ha, hb
}

// compareFiles prints one row per workload x end-to-end metric for two
// record files, a the base, then the two exact figures — the failure share
// (0 on both sides, or the files do not load) and the simulated seconds of
// each stream's head — and reports whether any pair regressed.
func compareFiles(out io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	const row = "%-13s %-17s %6s %-38s %-38s %8s %6s  %s\n"
	fmt.Fprintf(out, "base a = %s, b = %s; ratio is b/a of the medians; [q1 median q3]\n", pathA, pathB)
	fmt.Fprintf(out, row, "workload", "metric", "better", "a", "b", "b/a", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(va) < 3 || len(vb) < 3 {
				return false, fmt.Errorf("%s %s: %d and %d runs; a comparison needs 3 on each side", w.Name, m.Name, len(va), len(vb))
			}
			verdict, ratio := judge(m, va, vb)
			if verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(out, row, w.Name, m.Name, m.Better, summary(va), summary(vb),
				fmt.Sprintf("%.4f", ratio), fmt.Sprintf("%.2f", m.Bound), verdict)
		}
		fmt.Fprintf(out, row, w.Name, "fail_share", "lower", "0", "0", "", "exact", verdictOK)
		verdict, streams, ha, hb := judgeExact(w.Name, a.heads, b.heads)
		if verdict == verdictRegressed {
			regressed = true
		}
		fmt.Fprintf(out, row, w.Name, "sim_head_s", "same", fmt.Sprint(ha), fmt.Sprint(hb),
			"", "exact", fmt.Sprintf("%s (seeds in common: %d)", verdict, streams))
	}
	return regressed, nil
}

func summary(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("[%.5g %.5g %.5g] n=%d", q1, median(vs), q3, len(vs))
}
