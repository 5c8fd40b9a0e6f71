// Package plot renders small ASCII line charts for terminal output, such
// as the page-hotness CDF curves of Figure 6 (`hmexp -plot cdf`). It
// keeps the experiment tooling dependency-free while still producing
// figure-shaped output.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Line renders a line chart of points (x ascending) into a width x height
// character grid with axis labels.
func Line(title string, points [][2]float64, width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	if len(points) == 0 {
		return fmt.Sprintf("%s\n(no data)\n", title)
	}
	minX, maxX := points[0][0], points[0][0]
	minY, maxY := points[0][1], points[0][1]
	for _, p := range points {
		minX = math.Min(minX, p[0])
		maxX = math.Max(maxX, p[0])
		minY = math.Min(minY, p[1])
		maxY = math.Max(maxY, p[1])
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	plotAt := func(x, y float64, ch byte) {
		cx := int((x - minX) / (maxX - minX) * float64(width-1))
		cy := int((y - minY) / (maxY - minY) * float64(height-1))
		row := height - 1 - cy
		grid[row][cx] = ch
	}
	// Draw segments with simple interpolation so the curve is continuous.
	for i := 0; i < len(points)-1; i++ {
		a, b := points[i], points[i+1]
		steps := width
		for s := 0; s <= steps; s++ {
			t := float64(s) / float64(steps)
			plotAt(a[0]+(b[0]-a[0])*t, a[1]+(b[1]-a[1])*t, '*')
		}
	}
	plotAt(points[0][0], points[0][1], '*')

	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s\n", title)
	}
	for i, row := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%7.2f ", maxY)
		case height - 1:
			label = fmt.Sprintf("%7.2f ", minY)
		}
		fmt.Fprintf(&sb, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(&sb, "        +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&sb, "        %-*.2f%*.2f\n", width/2, minX, width-width/2, maxX)
	return sb.String()
}
