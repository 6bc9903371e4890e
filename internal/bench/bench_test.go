package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFigurePrint(t *testing.T) {
	f := Figure{Title: "Fig X", XLabel: "sel", XTicks: []string{"0.0", "0.5", "1.0"}, YLabel: "ms"}
	f.AddSeries("CPU If", []float64{1, 2, 3})
	f.AddSeries("GPU", []float64{0.1, 0.2}) // short series pads with '-'
	var buf bytes.Buffer
	f.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Fig X", "CPU If", "GPU", "0.5", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestTablePrintAndMean(t *testing.T) {
	tb := Table{Title: "Fig 16", Columns: []string{"CPU", "GPU"}}
	tb.AddRow("q1.1", 10, 1)
	tb.AddRow("q1.2", 20, 2)
	if tb.Rows() != 2 {
		t.Error("row count")
	}
	if m := tb.ColumnMean(0); m != 15 {
		t.Errorf("mean = %f", m)
	}
	if m := tb.ColumnMean(5); m != 0 {
		t.Errorf("out-of-range mean = %f", m)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	if !strings.Contains(buf.String(), "mean") {
		t.Error("missing mean row")
	}
}

func TestTableNoMean(t *testing.T) {
	tb := Table{Title: "stats", Columns: []string{"requests", "wall ms"}, NoMean: true}
	tb.AddRow("gpu", 12, 0.5)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	if strings.Contains(buf.String(), "mean") {
		t.Errorf("NoMean table still printed a mean row:\n%s", buf.String())
	}
}

func TestScale(t *testing.T) {
	if got := Scale(1.0, 1<<20, 1<<24); got != 16 {
		t.Errorf("scale = %f", got)
	}
	if got := Scale(2.0, 0, 100); got != 2.0 {
		t.Error("zero n should not scale")
	}
	if MS(0.25) != 250 {
		t.Error("MS")
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCost()
	if r := c.Ratio(); math.Abs(r-6.07) > 0.05 {
		t.Errorf("cost ratio = %.2f, paper says ~6x", r)
	}
	// Paper: 25x speedup over 6x cost = ~4x cost effectiveness.
	if e := c.Effectiveness(25); e < 3.8 || e > 4.4 {
		t.Errorf("effectiveness = %.2f, want ~4", e)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Errorf("geomean = %f", g)
	}
	if GeoMean(nil) != 0 {
		t.Error("empty geomean")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		8 << 10: "8KB",
		2 << 20: "2MB",
		1 << 30: "1GB",
	}
	for n, want := range cases {
		if got := HumanBytes(n); got != want {
			t.Errorf("HumanBytes(%d) = %s, want %s", n, got, want)
		}
	}
}

func TestBanner(t *testing.T) {
	var buf bytes.Buffer
	Banner(&buf, "Hello")
	if !strings.Contains(buf.String(), "-----") {
		t.Error("banner underline missing")
	}
}
