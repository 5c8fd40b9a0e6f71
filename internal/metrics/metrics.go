// Package metrics provides the small numeric and reporting helpers the
// experiment harness uses: geometric means, plain-text table rendering for
// the figure/table reproductions, latency histograms, Prometheus text
// rendering, and sweep statistics (runs, cache hits, wall time) for the
// parallel sweep executor.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Geomean returns the geometric mean of xs, the aggregate the paper uses
// for cross-workload averages. Non-positive values are invalid and yield
// NaN so mistakes are loud.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Table renders aligned text tables for experiment output.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v, and float64 cells with
// three decimal places.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows reports how many data rows the table holds.
func (t *Table) Rows() int { return len(t.rows) }

// WriteTo renders the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b) //nolint:errcheck // strings.Builder cannot fail
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows), for
// plotting outside the harness.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
