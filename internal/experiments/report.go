package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0–100) of the values,
// interpolating linearly between the two nearest ranks; NaN for empty
// input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Mean returns the arithmetic mean; NaN for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// GeoMean returns the geometric mean of positive values.
func GeoMean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range values {
		if v < 1e-12 {
			v = 1e-12
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(values)))
}

// Table renders rows of cells with aligned columns for terminal output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// FmtF formats a float compactly for table cells.
func FmtF(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// FmtPct formats a reduction fraction as a signed percentage.
func FmtPct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", v*100)
}

// FmtDur formats seconds compactly.
func FmtDur(sec float64) string {
	switch {
	case math.IsNaN(sec):
		return "-"
	case sec < 1e-3:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}
