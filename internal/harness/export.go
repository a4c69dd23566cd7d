package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/plot"
)

// CSVExporter is implemented by figures that can emit machine-readable
// rows for external plotting.
type CSVExporter interface {
	WriteCSV(w io.Writer) error
}

// ChartRenderer is implemented by figures that can render ASCII charts.
type ChartRenderer interface {
	RenderChart(w io.Writer)
}

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f2s(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// --- Fig1 ---------------------------------------------------------------

func (f *Fig1) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(f.Workloads))
	for i, wl := range f.Workloads {
		rows = append(rows, []string{wl, f2s(f.Speedup[i])})
	}
	return writeCSV(w, []string{"workload", "speedup_vs_cgl"}, rows)
}

func (f *Fig1) RenderChart(w io.Writer) {
	plot.Bars(w, "Fig. 1: requester-win HTM speedup vs CGL (2 threads)",
		f.Workloads, f.Speedup, "x", 1.0)
}

// --- Fig7 ---------------------------------------------------------------

func (f *Fig7) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, wl := range f.Workloads {
		for _, s := range f.Systems {
			for ti, t := range f.Threads {
				rows = append(rows, []string{wl, s, strconv.Itoa(t), f2s(f.Speedup[s][wl][ti])})
			}
		}
	}
	return writeCSV(w, []string{"workload", "system", "threads", "speedup_vs_cgl"}, rows)
}

func (f *Fig7) RenderChart(w io.Writer) {
	cols := make([]string, len(f.Threads))
	for i, t := range f.Threads {
		cols[i] = fmt.Sprintf("%dT", t)
	}
	for _, wl := range f.Workloads {
		rows := make([]string, 0, len(f.Systems))
		data := make([][]float64, 0, len(f.Systems))
		for _, s := range f.Systems {
			rows = append(rows, s)
			data = append(data, f.Speedup[s][wl])
		}
		plot.Series(w, fmt.Sprintf("Fig. 7 [%s]: speedup vs CGL", wl), rows, cols, data, "x")
	}
}

// --- Fig8 ---------------------------------------------------------------

func (f *Fig8) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, s := range f.Systems {
		for ti, t := range f.Threads {
			rows = append(rows, []string{s, strconv.Itoa(t), f2s(f.Rate[s][ti])})
		}
	}
	return writeCSV(w, []string{"system", "threads", "avg_commit_rate"}, rows)
}

func (f *Fig8) RenderChart(w io.Writer) {
	cols := make([]string, len(f.Threads))
	for i, t := range f.Threads {
		cols[i] = fmt.Sprintf("%dT", t)
	}
	data := make([][]float64, len(f.Systems))
	for i, s := range f.Systems {
		data[i] = f.Rate[s]
	}
	plot.Series(w, "Fig. 8: average commit rate", f.Systems, cols, data, "")
}

// --- BreakdownFig (Figs 9, 11) -------------------------------------------

func (f *BreakdownFig) WriteCSV(w io.Writer) error {
	header := []string{"workload", "system", "threads"}
	for _, c := range breakdownOrder {
		header = append(header, c.String())
	}
	header = append(header, "commit_rate")
	var rows [][]string
	for _, wl := range f.Workloads {
		for _, s := range f.Systems {
			row := []string{wl, s, strconv.Itoa(f.Threads)}
			share := f.Share[s][wl]
			for _, c := range breakdownOrder {
				row = append(row, f2s(share[c]))
			}
			row = append(row, f2s(f.Commit[s][wl]))
			rows = append(rows, row)
		}
	}
	return writeCSV(w, header, rows)
}

func (f *BreakdownFig) RenderChart(w io.Writer) {
	names := make([]string, len(breakdownOrder))
	for i, c := range breakdownOrder {
		names[i] = c.String()
	}
	var labels []string
	var parts [][]float64
	for _, wl := range f.Workloads {
		for _, s := range f.Systems {
			labels = append(labels, wl+"/"+s)
			share := f.Share[s][wl]
			row := make([]float64, len(breakdownOrder))
			for i, c := range breakdownOrder {
				row[i] = share[c]
			}
			parts = append(parts, row)
		}
	}
	plot.Stacked(w, fmt.Sprintf("%s: execution-time breakdown (%d threads)", f.Title, f.Threads),
		labels, names, parts)
}

// --- Fig10 ---------------------------------------------------------------

func (f *Fig10) WriteCSV(w io.Writer) error {
	header := []string{"workload", "system"}
	for _, c := range abortCauses {
		header = append(header, c.String())
	}
	header = append(header, "aborts_per_attempt")
	var rows [][]string
	for _, wl := range f.Workloads {
		for _, s := range f.Systems {
			row := []string{wl, s}
			for _, c := range abortCauses {
				row = append(row, f2s(f.Share[s][wl][c]))
			}
			row = append(row, f2s(f.AbortsPerAttempt[s][wl]))
			rows = append(rows, row)
		}
	}
	return writeCSV(w, header, rows)
}

func (f *Fig10) RenderChart(w io.Writer) {
	names := make([]string, len(abortCauses))
	for i, c := range abortCauses {
		names[i] = c.String()
	}
	var labels []string
	var parts [][]float64
	for _, wl := range f.Workloads {
		for _, s := range f.Systems {
			labels = append(labels, wl+"/"+s)
			row := make([]float64, len(abortCauses))
			for i, c := range abortCauses {
				row[i] = f.Share[s][wl][c]
			}
			parts = append(parts, row)
		}
	}
	plot.Stacked(w, "Fig. 10: abort causes (2 threads)", labels, names, parts)
}

// --- Fig12 ---------------------------------------------------------------

func (f *Fig12) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, s := range f.Systems {
		for ti, t := range f.Threads {
			rows = append(rows, []string{s, strconv.Itoa(t), f2s(f.Avg[s][ti])})
		}
	}
	return writeCSV(w, []string{"system", "threads", "avg_speedup_vs_cgl"}, rows)
}

func (f *Fig12) RenderChart(w io.Writer) {
	cols := make([]string, len(f.Threads))
	for i, t := range f.Threads {
		cols[i] = fmt.Sprintf("%dT", t)
	}
	data := make([][]float64, len(f.Systems))
	for i, s := range f.Systems {
		data[i] = f.Avg[s]
	}
	plot.Series(w, "Fig. 12: average speedup vs CGL", f.Systems, cols, data, "x")
}

// --- Fig13 ---------------------------------------------------------------

func (f *Fig13) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, cc := range f.Caches {
		for _, s := range f.Systems {
			for ti, t := range f.Threads {
				rows = append(rows, []string{cc, s, strconv.Itoa(t), f2s(f.Avg[cc][s][ti])})
			}
		}
	}
	return writeCSV(w, []string{"cache", "system", "threads", "avg_speedup_vs_cgl"}, rows)
}

func (f *Fig13) RenderChart(w io.Writer) {
	cols := make([]string, len(f.Threads))
	for i, t := range f.Threads {
		cols[i] = fmt.Sprintf("%dT", t)
	}
	for _, cc := range f.Caches {
		data := make([][]float64, len(f.Systems))
		for i, s := range f.Systems {
			data[i] = f.Avg[cc][s]
		}
		plot.Series(w, fmt.Sprintf("Fig. 13 [%s cache]: average speedup vs CGL", cc),
			f.Systems, cols, data, "x")
	}
}
