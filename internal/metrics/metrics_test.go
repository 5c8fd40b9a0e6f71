package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Geomean(2,8) = %g, want 4", got)
	}
	if got := Geomean([]float64{5}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Geomean(5) = %g, want 5", got)
	}
	if !math.IsNaN(Geomean(nil)) {
		t.Fatal("Geomean(nil) not NaN")
	}
	if !math.IsNaN(Geomean([]float64{1, 0})) {
		t.Fatal("Geomean with zero not NaN")
	}
	if !math.IsNaN(Geomean([]float64{-1})) {
		t.Fatal("Geomean with negative not NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "workload", "perf")
	tb.AddRow("bfs", 1.25)
	tb.AddRow("a-very-long-name", 0.5)
	out := tb.String()
	if !strings.Contains(out, "== Fig X ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "1.250") {
		t.Fatalf("float not formatted to 3 places:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	// Alignment: data rows should be at least as wide as the longest cell.
	if len(lines[3]) < len("a-very-long-name") {
		t.Fatalf("row not padded:\n%s", out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows() = %d, want 2", tb.Rows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2.5)
	csv := tb.CSV()
	want := "a,b\n1,2.500\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

// Property: geomean lies between min and max for positive inputs.
func TestPropertyGeomeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Percentile(0.5) != 0 || h.Sum() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.min != 1 || h.max != 100 {
		t.Fatalf("min/max = %d/%d", h.min, h.max)
	}
	if got := h.Sum(); got != 5050 {
		t.Fatalf("Sum = %g, want 5050", got)
	}
	// p50 of 1..100 is 50; bucket bound gives <= 63.
	p50 := h.Percentile(0.5)
	if p50 < 50 || p50 > 63 {
		t.Fatalf("p50 = %d, want within [50,63]", p50)
	}
	// p100 clamps to the exact max.
	if h.Percentile(1.0) != 100 {
		t.Fatalf("p100 = %d, want 100", h.Percentile(1.0))
	}
	if h.Percentile(2.0) != 100 || h.Percentile(-1) == 0 && h.Count() > 0 && h.Percentile(-1) > h.max {
		t.Fatal("percentile clamping broken")
	}
}

func TestHistogramSkewedTail(t *testing.T) {
	var h Histogram
	for i := 0; i < 990; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000)
	}
	if p50 := h.Percentile(0.50); p50 > 127 {
		t.Fatalf("p50 = %d, want ~100 bucket", p50)
	}
	if p999 := h.Percentile(0.999); p999 < 65536 {
		t.Fatalf("p99.9 = %d, want to land in the tail", p999)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
}

// Property: percentiles are monotone in p and bounded by [min-bucket, max].
func TestPropertyHistogramMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(uint64(v))
		}
		prev := uint64(0)
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			v := h.Percentile(p)
			if v < prev || v > h.max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
