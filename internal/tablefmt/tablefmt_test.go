package tablefmt

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("x", "1")
	tb.AddRow("longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// All rows align: the value column starts at the same offset.
	if strings.Index(lines[0], "value") != strings.Index(lines[3], "22") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("only")
	if !strings.Contains(tb.String(), "only") {
		t.Fatal("short row lost")
	}
}

func TestAddRowf(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRowf("x", 3.14159, 42)
	out := tb.String()
	for _, want := range []string{"x", "3.142", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestBar: a one-segment StackedBar is a plain bar, scaled, clamped to
// the width, and empty when degenerate.
func TestBar(t *testing.T) {
	bar := func(v, top float64, width int) string { return StackedBar([]float64{v}, top, width) }
	if got := bar(5, 10, 10); got != strings.Repeat("█", 5) {
		t.Fatalf("bar(5,10,10) = %q", got)
	}
	if bar(20, 10, 10) != strings.Repeat("█", 10) {
		t.Fatal("bar must clamp to width")
	}
	if bar(-1, 10, 10) != "" || bar(1, 0, 10) != "" {
		t.Fatal("degenerate bars must be empty")
	}
}

func TestStackedBar(t *testing.T) {
	got := StackedBar([]float64{5, 5}, 10, 10)
	if n := len([]rune(got)); n != 10 {
		t.Fatalf("stacked bar length %d, want 10 (%q)", n, got)
	}
	// Two distinct fills must appear.
	if !strings.ContainsRune(got, '█') || !strings.ContainsRune(got, '▒') {
		t.Fatalf("stacked bar missing segment fills: %q", got)
	}
	if got := StackedBar([]float64{100}, 10, 8); len([]rune(got)) != 8 {
		t.Fatal("stacked bar must clamp to width")
	}
}

func TestHeatCell(t *testing.T) {
	if HeatCell(0, 0, 1) != " " {
		t.Fatal("minimum must map to the lightest shade")
	}
	if HeatCell(1, 0, 1) != "█" {
		t.Fatal("maximum must map to the darkest shade")
	}
	if HeatCell(5, 3, 3) != " " {
		t.Fatal("degenerate range must not panic")
	}
	if HeatCell(-10, 0, 1) != " " || HeatCell(10, 0, 1) != "█" {
		t.Fatal("out-of-range values must clamp")
	}
}

func TestPercentAndHours(t *testing.T) {
	if Percent(53.25) != "53.2%" && Percent(53.25) != "53.3%" {
		t.Fatalf("Percent = %q", Percent(53.25))
	}
	if Hours(7200) != "2.00h" {
		t.Fatalf("Hours = %q", Hours(7200))
	}
}
