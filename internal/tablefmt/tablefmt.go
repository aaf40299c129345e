// Package tablefmt renders the experiment results as terminal tables, bar
// charts, and heat maps — the presentation layer for the paper's tables
// and figures. Output is plain ASCII so it diffs cleanly and survives any
// terminal.
package tablefmt

import (
	"fmt"
	"math"
	"strings"
)

// Table accumulates rows and renders with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each argument is rendered
// with %v except float64, which uses %.4g; callers needing full control
// should format and use AddRow.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.4g", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// StackedBar renders segments (e.g. checkpoint/recompute/recovery) with
// distinct fill runes, scaled so maxValue fills width.
func StackedBar(segments []float64, maxValue float64, width int) string {
	if maxValue <= 0 || width <= 0 {
		return ""
	}
	fills := []rune{'█', '▒', '░'} // checkpoint / recompute / recovery
	var b strings.Builder
	for i, s := range segments {
		if s <= 0 {
			continue
		}
		n := int(math.Round(s / maxValue * float64(width)))
		fill := fills[i%len(fills)]
		for j := 0; j < n; j++ {
			b.WriteRune(fill)
		}
	}
	out := b.String()
	if len([]rune(out)) > width {
		out = string([]rune(out)[:width])
	}
	return out
}

// HeatCell maps a value in [lo, hi] to a shaded rune, for the Fig. 2c
// style heat map.
func HeatCell(value, lo, hi float64) string {
	shades := []string{" ", "░", "▒", "▓", "█"}
	if hi <= lo {
		return shades[0]
	}
	f := (value - lo) / (hi - lo)
	idx := int(f * float64(len(shades)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(shades) {
		idx = len(shades) - 1
	}
	return shades[idx]
}

// Percent formats a percentage with one decimal.
func Percent(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// Hours formats a duration given in seconds as hours with two decimals.
func Hours(seconds float64) string { return fmt.Sprintf("%.2fh", seconds/3600) }
