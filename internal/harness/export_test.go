package harness

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stamp"
)

func parseCSV(t *testing.T, b []byte) [][]string {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, b)
	}
	return rows
}

func TestFig1CSVAndChart(t *testing.T) {
	f := &Fig1{Workloads: []string{"a", "b"}, Speedup: []float64{1.5, 0.9}}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	if len(rows) != 3 || rows[0][0] != "workload" || rows[1][1] != "1.5000" {
		t.Fatalf("rows = %v", rows)
	}
	buf.Reset()
	f.RenderChart(&buf)
	if !strings.Contains(buf.String(), "#") {
		t.Fatal("chart missing bars")
	}
}

func TestFigureCSVRoundTrips(t *testing.T) {
	r := NewRunner(5)
	wls := []stamp.Profile{tinyProfile()}
	threads := []int{2}

	f8, err := RunFig8(r, wls, threads)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f8.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	if len(rows) != 1+4 { // header + 4 systems x 1 thread count
		t.Fatalf("fig8 rows = %d", len(rows))
	}

	f10, err := RunFig10(r, wls)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f10.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, buf.Bytes())
	if len(rows) != 1+3 || len(rows[0]) != 2+6+1 {
		t.Fatalf("fig10 shape = %dx%d", len(rows), len(rows[0]))
	}

	bf, err := RunBreakdown(r, "Fig. 11", []string{"Baseline", "LockillerTM"}, wls, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := bf.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, buf.Bytes())
	// Shares must sum to ~1 per row.
	for _, row := range rows[1:] {
		sum := 0.0
		for _, cell := range row[3 : len(row)-1] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("breakdown row sums to %v: %v", sum, row)
		}
	}
	buf.Reset()
	bf.RenderChart(&buf)
	if !strings.Contains(buf.String(), "legend") {
		t.Fatal("breakdown chart missing legend")
	}
}
