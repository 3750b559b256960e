package perfhist

import (
	"fmt"
	"html/template"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// maxWorstRows caps the worst-regression table; the full movement is in
// the per-benchmark timeline tables.
const maxWorstRows = 15

// Sparkline geometry. Fixed-pixel layout with fixed-decimal coordinate
// formatting keeps the SVG byte-deterministic for a given ledger.
const (
	sparkLabelW = 240 // metric-name gutter
	sparkPlotW  = 300 // plot area
	sparkValueW = 100 // last-value gutter
	sparkRowH   = 34  // per-metric row
	sparkPad    = 6   // vertical padding inside a row
)

// Chart colors — validated single-series palette: one blue for the mean
// line, its lightest sequential step for the 95% CI band, the reserved
// red for changepoint marks (a state, not a series), ink for text.
const (
	colLine   = "#2a78d6"
	colBand   = "#cde2fb"
	colStep   = "#e34948"
	colInk    = "#0b0b0b"
	colInkDim = "#52514e"
)

// TrendReport builds the renderable trend report for a ledger: an
// identity block, the worst-regressions table, then one timeline section
// per benchmark — an SVG small-multiples figure (one sparkline with CI
// band per metric, changepoints marked) over an aligned summary table.
// It reuses the obs report view-model, so HTML and text output can never
// disagree about content, and both are byte-deterministic for a fixed
// ledger.
func TrendReport(entries []Entry) *obs.Report {
	series := Trend(entries)
	r := &obs.Report{Title: fmt.Sprintf("perf trend: %d ledger entries", len(entries))}
	first, last := entries[0], entries[len(entries)-1]
	r.KV = [][2]string{
		{"commits", shortCommit(first.Commit) + " -> " + shortCommit(last.Commit)},
		{"span", first.Timestamp + " -> " + last.Timestamp},
		{"series", strconv.Itoa(len(series))},
	}
	if last.GoVersion != "" {
		r.KV = append(r.KV, [2]string{"go", last.GoVersion})
	}
	if last.CPU != "" {
		r.KV = append(r.KV, [2]string{"cpu", last.CPU})
	}

	if worst := WorstRegressions(series); len(worst) > 0 {
		r.Tables = append(r.Tables, worstTable(worst))
	}
	// Trend sorts by benchmark, so each benchmark's series are adjacent.
	for lo := 0; lo < len(series); {
		hi := lo + 1
		for hi < len(series) && series[hi].Bench == series[lo].Bench {
			hi++
		}
		r.Tables = append(r.Tables, timelineTable(series[lo].Bench, series[lo:hi]))
		lo = hi
	}
	return r
}

func worstTable(worst []Regression) obs.ReportTable {
	t := obs.ReportTable{
		Title: "Worst regressions (last entry vs previous)",
		Note:  "metrics that grew between the two most recent ledger entries; significant = the 95% CIs do not overlap",
		Head:  []string{"benchmark", "metric", "prev", "last", "delta", "significant"},
		Num:   []bool{false, false, true, true, true, false},
	}
	for i, w := range worst {
		if i == maxWorstRows {
			t.Note += fmt.Sprintf(" (%d more omitted)", len(worst)-maxWorstRows)
			break
		}
		sig := "no"
		if w.Significant {
			sig = "yes"
		}
		t.Rows = append(t.Rows, []string{
			w.Bench, w.Metric, obs.FormatValue(w.From.Dist.Mean), obs.FormatValue(w.To.Dist.Mean),
			fmt.Sprintf("%+.1f%%", w.Pct), sig,
		})
	}
	return t
}

func timelineTable(bench string, group []Series) obs.ReportTable {
	t := obs.ReportTable{
		Title:  "Timeline: " + bench,
		Head:   []string{"metric", "points", "first", "last", "delta", "changepoints"},
		Num:    []bool{false, true, true, true, true, false},
		Figure: sparklines(group),
	}
	for _, s := range group {
		firstD, lastD := s.Points[0].Dist, s.Last().Dist
		delta := "-"
		if firstD.Mean != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(lastD.Mean-firstD.Mean)/firstD.Mean)
		}
		steps := "-"
		if len(s.Changepoints) > 0 {
			marks := make([]string, len(s.Changepoints))
			for i, cp := range s.Changepoints {
				marks[i] = "@" + shortCommit(s.Points[cp].Commit)
			}
			steps = strings.Join(marks, " ")
		}
		t.Rows = append(t.Rows, []string{
			s.Metric, strconv.Itoa(len(s.Points)), obs.FormatValue(firstD.Mean), obs.FormatValue(lastD.Mean), delta, steps,
		})
	}
	return t
}

// sparklines renders one benchmark's metrics as an SVG small-multiples
// figure: per metric a label, a sparkline of the mean with its 95% CI
// band, changepoint marks, and the last value. Each row scales its own
// y-axis (metrics differ by orders of magnitude); x is the ledger index,
// evenly spaced.
func sparklines(group []Series) template.HTML {
	width := sparkLabelW + sparkPlotW + sparkValueW
	height := sparkRowH * len(group)
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" role="img">`,
		width, height, width, height)
	for row, s := range group {
		top := float64(row * sparkRowH)
		lo, hi := yRange(s.Points)
		// y maps value v into this row's padded band, larger = higher.
		y := func(v float64) float64 {
			frac := (v - lo) / (hi - lo)
			return top + float64(sparkRowH-sparkPad) - frac*float64(sparkRowH-2*sparkPad)
		}
		x := func(i int) float64 {
			if len(s.Points) == 1 {
				return sparkLabelW + float64(sparkPlotW)/2
			}
			return sparkLabelW + float64(i)*float64(sparkPlotW-12)/float64(len(s.Points)-1) + 6
		}
		// CI band: upper bounds left to right, then lower bounds back.
		if len(s.Points) > 1 {
			var pts []string
			for i, p := range s.Points {
				pts = append(pts, coord(x(i))+","+coord(y(p.Dist.CIHigh)))
			}
			for i := len(s.Points) - 1; i >= 0; i-- {
				pts = append(pts, coord(x(i))+","+coord(y(s.Points[i].Dist.CILow)))
			}
			fmt.Fprintf(&sb, `<polygon points="%s" fill="%s"/>`, strings.Join(pts, " "), colBand)
			var line []string
			for i, p := range s.Points {
				line = append(line, coord(x(i))+","+coord(y(p.Dist.Mean)))
			}
			fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`,
				strings.Join(line, " "), colLine)
		}
		for i, p := range s.Points {
			r := "2.5"
			fill := colLine
			title := fmt.Sprintf("%s @ %s: %s", s.Metric, shortCommit(p.Commit), obs.FormatValue(p.Dist.Mean))
			if hasStep(s.Changepoints, i) {
				r, fill = "4", colStep
				title += " (changepoint)"
			}
			fmt.Fprintf(&sb, `<circle cx="%s" cy="%s" r="%s" fill="%s"><title>%s</title></circle>`,
				coord(x(i)), coord(y(p.Dist.Mean)), r, fill, template.HTMLEscapeString(title))
		}
		fmt.Fprintf(&sb, `<text x="0" y="%s" font-size="11" font-family="system-ui,sans-serif" fill="%s">%s</text>`,
			coord(top+float64(sparkRowH)/2+4), colInkDim, template.HTMLEscapeString(s.Metric))
		fmt.Fprintf(&sb, `<text x="%d" y="%s" font-size="11" font-family="system-ui,sans-serif" fill="%s" text-anchor="end">%s</text>`,
			width, coord(top+float64(sparkRowH)/2+4), colInk, template.HTMLEscapeString(obs.FormatValue(s.Last().Dist.Mean)))
	}
	sb.WriteString(`</svg>`)
	return template.HTML(sb.String())
}

// yRange spans every point's CI, padded so a flat series still draws
// mid-band instead of degenerating to a zero-height scale.
func yRange(points []Point) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range points {
		lo = math.Min(lo, p.Dist.CILow)
		hi = math.Max(hi, p.Dist.CIHigh)
	}
	if lo == hi {
		pad := math.Abs(lo) / 2
		if pad == 0 {
			pad = 1
		}
		lo, hi = lo-pad, hi+pad
	}
	return lo, hi
}

func hasStep(steps []int, i int) bool {
	j := sort.SearchInts(steps, i)
	return j < len(steps) && steps[j] == i
}

// coord formats an SVG coordinate with one fixed decimal — deterministic
// and fine-grained enough at sparkline scale.
func coord(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

func shortCommit(c string) string {
	if len(c) > 7 {
		return c[:7]
	}
	return c
}
