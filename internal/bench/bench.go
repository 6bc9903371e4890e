// Package bench is the reporting harness for the experiment reproduction:
// formatting for the paper's figures (series over a swept parameter) and
// tables (rows of per-query times), linear extrapolation from the executed
// input size to the paper's input size, and the Section 5.4 dollar-cost
// comparison.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one line of a figure: a name and one value per x-axis point.
type Series struct {
	Name   string
	Values []float64
}

// Figure is a reproduced figure: an x-axis and a set of series, printed as
// aligned columns so the rows a plot would show are directly comparable.
type Figure struct {
	Title  string
	XLabel string
	XTicks []string
	YLabel string
	Series []Series
}

// AddSeries appends a series to the figure.
func (f *Figure) AddSeries(name string, values []float64) {
	f.Series = append(f.Series, Series{Name: name, Values: values})
}

// Fprint renders the figure as an aligned text table.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", f.Title)
	if f.YLabel != "" {
		fmt.Fprintf(w, "   (values: %s)\n", f.YLabel)
	}
	width := 12
	for _, s := range f.Series {
		if len(s.Name)+2 > width {
			width = len(s.Name) + 2
		}
	}
	fmt.Fprintf(w, "%-*s", width, f.XLabel)
	for _, x := range f.XTicks {
		fmt.Fprintf(w, "%12s", x)
	}
	fmt.Fprintln(w)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-*s", width, s.Name)
		for i := range f.XTicks {
			if i < len(s.Values) && s.Values[i] >= 0 && !math.IsNaN(s.Values[i]) {
				fmt.Fprintf(w, "%12.3f", s.Values[i])
			} else {
				fmt.Fprintf(w, "%12s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Table is a reproduced table: named columns and labelled rows.
type Table struct {
	Title   string
	Columns []string
	// NoMean suppresses the trailing mean row, for tables whose columns mix
	// units (e.g. counts next to latencies) where a column mean is
	// meaningless.
	NoMean bool
	rows   []tableRow
}

type tableRow struct {
	label  string
	values []float64
}

// AddRow appends a labelled row.
func (t *Table) AddRow(label string, values ...float64) {
	t.rows = append(t.rows, tableRow{label: label, values: values})
}

// Rows returns the number of rows added.
func (t *Table) Rows() int { return len(t.rows) }

// ColumnMean returns the mean of column i across rows.
func (t *Table) ColumnMean(i int) float64 {
	var sum float64
	n := 0
	for _, r := range t.rows {
		if i < len(r.values) {
			sum += r.values[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Fprint renders the table with a trailing geometric-mean-free "mean" row,
// matching the figures' mean columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	width := 8
	for _, r := range t.rows {
		if len(r.label)+2 > width {
			width = len(r.label) + 2
		}
	}
	fmt.Fprintf(w, "%-*s", width, "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%16s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.rows {
		fmt.Fprintf(w, "%-*s", width, r.label)
		for i := range t.Columns {
			if i < len(r.values) {
				fmt.Fprintf(w, "%16.3f", r.values[i])
			} else {
				fmt.Fprintf(w, "%16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	if !t.NoMean {
		fmt.Fprintf(w, "%-*s", width, "mean")
		for i := range t.Columns {
			fmt.Fprintf(w, "%16.3f", t.ColumnMean(i))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Scale linearly extrapolates a simulated time measured on n elements to
// the paper's element count. The traffic models are linear in the input
// size for a fixed working-structure size, so this is exact within the
// model (DESIGN.md Section 4).
func Scale(seconds float64, n, paperN int64) float64 {
	if n <= 0 {
		return seconds
	}
	return seconds * float64(paperN) / float64(n)
}

// MS converts seconds to milliseconds.
func MS(seconds float64) float64 { return seconds * 1e3 }

// Clocked is the subset of device.Clock the scaler needs.
type Clocked interface {
	Seconds() float64
	LaunchSeconds() float64
}

// ScaleClock extrapolates a clock's accumulated time from n executed
// elements to paperN, holding the fixed launch overhead constant (only the
// traffic terms are linear in the input).
func ScaleClock(c Clocked, n, paperN int64) float64 {
	launch := c.LaunchSeconds()
	return Scale(c.Seconds()-launch, n, paperN) + launch
}

// Cost is the Section 5.4 dollar-cost comparison.
type Cost struct {
	CPURentPerHour float64
	GPURentPerHour float64
}

// DefaultCost returns the AWS prices from Table 3 (r5.2xlarge vs
// p3.2xlarge).
func DefaultCost() Cost {
	return Cost{CPURentPerHour: 0.504, GPURentPerHour: 3.06}
}

// Ratio returns the renting-cost ratio GPU/CPU (~6x).
func (c Cost) Ratio() float64 { return c.GPURentPerHour / c.CPURentPerHour }

// Effectiveness returns the cost-effectiveness improvement of the GPU given
// a mean performance speedup: speedup / cost ratio (the paper's "4x more
// cost effective" with a 25x speedup and 6x cost).
func (c Cost) Effectiveness(speedup float64) float64 {
	return speedup / c.Ratio()
}

// GeoMean returns the geometric mean of vs (the paper reports mean
// speedups across the 13 SSB queries).
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	prod := 1.0
	for _, v := range vs {
		prod *= v
	}
	return pow(prod, 1/float64(len(vs)))
}

func pow(x, p float64) float64 { return math.Pow(x, p) }

// HumanBytes renders a byte count the way the Figure 13 x-axis labels do.
func HumanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// Banner renders a section banner for the CLI reports.
func Banner(w io.Writer, s string) {
	fmt.Fprintf(w, "%s\n%s\n", s, strings.Repeat("-", len(s)))
}
