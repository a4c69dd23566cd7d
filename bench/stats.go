package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// minSamples is the smallest sample count for which highPercentile(xs, 90)
// answers: p90 of 100 samples leaves exactly minBeyond above it.
const minSamples = 100

// median returns the middle of xs (the mean of the two middle values for an
// even count). xs must not be empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highPercentile returns the nearest-rank pct-th percentile of xs
// (0 < pct < 100) and refuses it when fewer than minBeyond samples lie
// beyond it.
func highPercentile(xs []float64, pct int) (float64, error) {
	s := sorted(xs)
	idx := (pct*len(s)+99)/100 - 1
	if beyond := len(s) - 1 - idx; idx < 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%d over %d samples leaves %d beyond it, want at least %d",
			pct, len(s), len(s)-1-idx, minBeyond)
	}
	return s[idx], nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// workerIdleFrac is the share of the workers' capacity over a sweep that no
// simulation used: 1 − busy ÷ (workers × wall), where busy sums the
// per-simulation walls.
func workerIdleFrac(busy, wall time.Duration, workers int) float64 {
	return 1 - busy.Seconds()/(float64(workers)*wall.Seconds())
}

// parseVmHWM returns the peak resident set size in kB from a
// /proc/<pid>/status listing.
func parseVmHWM(r io.Reader) (uint64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMiB reads this process's VmHWM.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kb, err := parseVmHWM(f)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/status: %w", err)
	}
	return float64(kb) / 1024, nil
}
