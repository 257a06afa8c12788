// Package trace records experiment time series and renders them as CSV files
// and ASCII plots.  It is the reporting substrate for the figure-regeneration
// harness: the paper's Figures 3 and 4 are time-series plots of RMTTF, the
// workload fraction f_i, and the client response time, and this package
// produces the equivalent rows/series from a simulation run.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Recorder collects named time series during a simulation run.
type Recorder struct {
	sets  map[string]*stats.SeriesSet
	order []string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{sets: map[string]*stats.SeriesSet{}}
}

// Set returns (creating if needed) the series set with the given name, e.g.
// "rmttf", "fraction", "response_time".
func (r *Recorder) Set(name string) *stats.SeriesSet {
	if s, ok := r.sets[name]; ok {
		return s
	}
	s := stats.NewSeriesSet(name)
	r.sets[name] = s
	r.order = append(r.order, name)
	return s
}

// Series returns (creating if needed) the series called series inside the set
// called set.
func (r *Recorder) Series(set, series string) *stats.Series {
	ss := r.Set(set)
	if s := ss.Get(series); s != nil {
		return s
	}
	return ss.Add(series)
}

// Record appends an observation to the given set/series.
func (r *Recorder) Record(set, series string, t, v float64) {
	r.Series(set, series).Add(t, v)
}

// SetNames returns the registered set names in creation order.
func (r *Recorder) SetNames() []string { return append([]string(nil), r.order...) }

// WriteCSV writes the set as a wide CSV: one row per distinct timestamp, one
// column per series, using step interpolation for series that have no
// observation at a given timestamp.
func (r *Recorder) WriteCSV(w io.Writer, set string) error {
	ss, ok := r.sets[set]
	if !ok {
		return fmt.Errorf("trace: unknown series set %q", set)
	}
	cw := csv.NewWriter(w)
	header := append([]string{"time_s"}, ss.Names()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	times := unionTimes(ss)
	for _, t := range times {
		row := make([]string, 0, len(header))
		row = append(row, formatFloat(t))
		for _, s := range ss.Series {
			row = append(row, formatFloat(s.At(t)))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAllCSV writes every registered set, each preceded by a "# <set>"
// comment line, to the writer.
func (r *Recorder) WriteAllCSV(w io.Writer) error {
	for _, name := range r.order {
		if _, err := fmt.Fprintf(w, "# %s\n", name); err != nil {
			return err
		}
		if err := r.WriteCSV(w, name); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func unionTimes(ss *stats.SeriesSet) []float64 {
	set := map[float64]struct{}{}
	for _, s := range ss.Series {
		for _, p := range s.Points {
			set[p.T] = struct{}{}
		}
	}
	times := make([]float64, 0, len(set))
	for t := range set {
		times = append(times, t)
	}
	sort.Float64s(times)
	return times
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 8, 64)
}

// PlotOptions controls ASCII plot rendering.
type PlotOptions struct {
	Width  int // number of columns in the plot area (default 72)
	Height int // number of rows in the plot area (default 16)
	Title  string
	YLabel string
}

func (o PlotOptions) withDefaults() PlotOptions {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Height <= 0 {
		o.Height = 16
	}
	return o
}

// plotMarks are the glyphs assigned to successive series in a plot.
var plotMarks = []rune{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// ASCIIPlot renders the series set as a fixed-size ASCII chart, one glyph per
// series, matching the shape of the figures in the paper closely enough for a
// terminal-side qualitative comparison.
func ASCIIPlot(ss *stats.SeriesSet, opts PlotOptions) string {
	opts = opts.withDefaults()
	var b strings.Builder
	if opts.Title != "" {
		fmt.Fprintf(&b, "%s\n", opts.Title)
	}
	if len(ss.Series) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}

	// Establish global time and value ranges.
	tMin, tMax := math.Inf(1), math.Inf(-1)
	vMin, vMax := math.Inf(1), math.Inf(-1)
	hasData := false
	for _, s := range ss.Series {
		for _, p := range s.Points {
			hasData = true
			if p.T < tMin {
				tMin = p.T
			}
			if p.T > tMax {
				tMax = p.T
			}
			if p.V < vMin {
				vMin = p.V
			}
			if p.V > vMax {
				vMax = p.V
			}
		}
	}
	if !hasData {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if vMax == vMin {
		vMax = vMin + 1
	}
	if tMax == tMin {
		tMax = tMin + 1
	}

	grid := make([][]rune, opts.Height)
	for i := range grid {
		grid[i] = make([]rune, opts.Width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}

	for si, s := range ss.Series {
		mark := plotMarks[si%len(plotMarks)]
		for col := 0; col < opts.Width; col++ {
			t := tMin + (tMax-tMin)*float64(col)/float64(opts.Width-1)
			v := s.At(t)
			row := int((v - vMin) / (vMax - vMin) * float64(opts.Height-1))
			if row < 0 {
				row = 0
			}
			if row >= opts.Height {
				row = opts.Height - 1
			}
			// Row 0 of the grid is the top.
			grid[opts.Height-1-row][col] = mark
		}
	}

	yTop := fmt.Sprintf("%10.3g |", vMax)
	yBot := fmt.Sprintf("%10.3g |", vMin)
	for i, row := range grid {
		switch i {
		case 0:
			b.WriteString(yTop)
		case opts.Height - 1:
			b.WriteString(yBot)
		default:
			b.WriteString(strings.Repeat(" ", 10) + " |")
		}
		b.WriteString(strings.TrimRight(string(row), " "))
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 11) + "+" + strings.Repeat("-", opts.Width) + "\n")
	fmt.Fprintf(&b, "%12s%-20.6g%*s%.6g (time, s)\n", "", tMin, opts.Width-20, "", tMax)

	// Legend.
	b.WriteString("  legend:")
	for si, s := range ss.Series {
		fmt.Fprintf(&b, " %c=%s", plotMarks[si%len(plotMarks)], s.Name)
	}
	if opts.YLabel != "" {
		fmt.Fprintf(&b, "   (y: %s)", opts.YLabel)
	}
	b.WriteByte('\n')
	return b.String()
}

// SummaryTable renders a compact per-series summary (tail mean, stddev and
// oscillation) as an aligned text table.  It is used by cmd/figures to print
// the qualitative comparison that backs the bullets in Section VI-B.
func SummaryTable(ss *stats.SeriesSet, tailFrac float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %12s %12s %8s\n", ss.Name, "tail-mean", "tail-sd", "oscillation", "points")
	for _, s := range ss.Series {
		fmt.Fprintf(&b, "%-24s %12.4f %12.4f %12.4f %8d\n",
			s.Name, s.TailMean(tailFrac), s.TailStdDev(tailFrac), s.OscillationIndex(tailFrac), s.Len())
	}
	return b.String()
}
