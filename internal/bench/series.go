// Package bench holds the paper's evaluation fixtures: the §7 case-study
// catalogs and queries (Figures 4-7), the §6 Figure 3 join runners, and
// the Series type the examples print. Tests assert the figures' shapes as
// exact counts and plan identities; throughput is measured by the
// benchmark/ module (BENCHMARK.json), not here.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Series is one plotted line: x/y pairs with axis labels.
type Series struct {
	Label  string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Print renders the series as an aligned two-column table.
func (s *Series) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", s.Label)
	fmt.Fprintf(w, "%-16s %-16s\n", s.XLabel, s.YLabel)
	for i := range s.X {
		fmt.Fprintf(w, "%-16.6g %-16.6g\n", s.X[i], s.Y[i])
	}
}

// PrintAll renders several series separated by blank lines.
func PrintAll(w io.Writer, series []Series) {
	for i := range series {
		if i > 0 {
			fmt.Fprintln(w)
		}
		series[i].Print(w)
	}
}

// Monotone checks the y values are non-increasing (within slack fraction),
// used to assert strong-scaling shape.
func (s *Series) Monotone(slack float64) bool {
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] > s.Y[i-1]*(1+slack) {
			return false
		}
	}
	return true
}

// Sparkline renders a coarse ASCII sparkline of the series for terminal
// inspection of signal shapes.
func (s *Series) Sparkline(width int) string {
	if len(s.Y) == 0 {
		return ""
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	min, max := s.Y[0], s.Y[0]
	for _, y := range s.Y {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	if width <= 0 || width > len(s.Y) {
		width = len(s.Y)
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		y := s.Y[i*len(s.Y)/width]
		level := 0
		if max > min {
			level = int((y - min) / (max - min) * float64(len(marks)-1))
		}
		b.WriteRune(marks[level])
	}
	return b.String()
}
