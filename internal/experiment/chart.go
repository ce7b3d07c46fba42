package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Chart renders the figure as an ASCII line chart: one mark per series per x
// position, sharing a y axis, approximating the paper's plots in a terminal.
// Width and height are the plot area in characters; sensible minimums are
// enforced.
func (f *Figure) Chart(w io.Writer, width, height int) {
	if len(f.X) == 0 || len(f.Series) == 0 {
		fmt.Fprintf(w, "%s: (no data)\n", f.ID)
		return
	}
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	yMin, yMax := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, v := range s.Y {
			yMin = math.Min(yMin, v)
			yMax = math.Max(yMax, v)
		}
	}
	// Exact float comparison, a degenerate-range guard: a flat series yields bitwise-identical min/max
	if yMax == yMin {
		yMax = yMin + 1
	}
	xMin, xMax := f.X[0], f.X[len(f.X)-1]
	// Exact float comparison, a degenerate-range guard: a single x yields bitwise-identical endpoints
	if xMax == xMin {
		xMax = xMin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := seriesMarks()
	for si, s := range f.Series {
		mark := marks[si%len(marks)]
		for i, x := range f.X {
			col := int(math.Round((x - xMin) / (xMax - xMin) * float64(width-1)))
			row := height - 1 - int(math.Round((s.Y[i]-yMin)/(yMax-yMin)*float64(height-1)))
			if row >= 0 && row < height && col >= 0 && col < width {
				if grid[row][col] == ' ' {
					grid[row][col] = mark
				} else {
					grid[row][col] = '*' // overlap
				}
			}
		}
	}

	fmt.Fprintf(w, "%s: %s\n", f.ID, f.Title)
	top := fmt.Sprintf("%.4g", yMax)
	bottom := fmt.Sprintf("%.4g", yMin)
	labelW := max(len(top), len(bottom))
	for r, row := range grid {
		label := strings.Repeat(" ", labelW)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", labelW, top)
		case height - 1:
			label = fmt.Sprintf("%*s", labelW, bottom)
		}
		fmt.Fprintf(w, "  %s |%s\n", label, string(row))
	}
	fmt.Fprintf(w, "  %s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", width))
	fmt.Fprintf(w, "  %s  %-*s%s\n", strings.Repeat(" ", labelW), width-len(fmt.Sprintf("%.4g", xMax)),
		fmt.Sprintf("%.4g", xMin), fmt.Sprintf("%.4g", xMax))
	var legend []string
	for si, s := range f.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[si%len(marks)], s.Label))
	}
	fmt.Fprintf(w, "  %s (x: %s, y: %s)\n", strings.Join(legend, "  "), f.XLabel, f.YLabel)
}

func seriesMarks() []byte { return []byte{'o', 'x', '+', '#', '@', '%', '~', '^'} }
