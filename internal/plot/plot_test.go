package plot

import (
	"strings"
	"testing"
)

func TestLineBasic(t *testing.T) {
	pts := [][2]float64{{0, 0}, {0.5, 0.8}, {1, 1}}
	out := Line("cdf", pts, 40, 10)
	if !strings.Contains(out, "cdf") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no curve drawn")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + height rows + axis + labels
	if len(lines) != 1+10+2 {
		t.Fatalf("rendered %d lines, want 13", len(lines))
	}
	if !strings.Contains(out, "1.00") || !strings.Contains(out, "0.00") {
		t.Fatalf("missing axis labels:\n%s", out)
	}
}

func TestLineDegenerate(t *testing.T) {
	if out := Line("t", nil, 40, 10); !strings.Contains(out, "no data") {
		t.Fatal("empty input not handled")
	}
	// Single point and flat lines must not divide by zero.
	out := Line("t", [][2]float64{{1, 1}}, 40, 10)
	if !strings.Contains(out, "*") {
		t.Fatal("single point not plotted")
	}
	out = Line("t", [][2]float64{{0, 5}, {1, 5}}, 40, 10)
	if !strings.Contains(out, "*") {
		t.Fatal("flat line not plotted")
	}
}

func TestLineClampsTinySizes(t *testing.T) {
	out := Line("t", [][2]float64{{0, 0}, {1, 1}}, 1, 1)
	if len(out) == 0 {
		t.Fatal("no output for tiny size")
	}
}

func TestLineMonotoneCurveShape(t *testing.T) {
	// An increasing curve must place marks higher (earlier rows) as x grows.
	pts := [][2]float64{{0, 0}, {1, 1}}
	out := Line("", pts, 20, 10)
	rows := strings.Split(out, "\n")
	firstCol := -1
	lastCol := -1
	for i, row := range rows {
		if strings.Contains(row, "*") {
			if firstCol == -1 {
				firstCol = i
			}
			lastCol = i
		}
	}
	if firstCol >= lastCol {
		t.Fatalf("increasing curve rendered flat (rows %d..%d):\n%s", firstCol, lastCol, out)
	}
}
