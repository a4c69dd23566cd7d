package main

import (
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median(5,1,3) = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

func TestHighPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	if _, err := highPercentile(ramp(minSamples-1), 90); err == nil {
		t.Errorf("p90 of %d samples answered; fewer than %d lie beyond it", minSamples-1, minBeyond)
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{minSamples, 90}, {1000, 900}, {150, 135}} {
		got, err := highPercentile(ramp(tc.n), 90)
		if err != nil || got != tc.want {
			t.Errorf("p90 of 1..%d = %v, %v; want %v", tc.n, got, err, tc.want)
		}
	}
}

func TestWorkerIdleFrac(t *testing.T) {
	if got := workerIdleFrac(3*time.Second, 2*time.Second, 2); got != 0.25 {
		t.Errorf("3 s busy over 2 workers × 2 s = idle %v, want 0.25", got)
	}
	if got := workerIdleFrac(time.Second, time.Second, 1); got != 0 {
		t.Errorf("a fully busy worker idles %v, want 0", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbench\nVmPeak:\t  812344 kB\nVmHWM:\t   33644 kB\nVmRSS:\t   30120 kB\n"
	if kb, err := parseVmHWM(strings.NewReader(status)); err != nil || kb != 33644 {
		t.Errorf("parseVmHWM = %d, %v; want 33644", kb, err)
	}
	for _, bad := range []string{"Name:\tbench\n", "VmHWM:\t33644\n", "VmHWM:\tlots kB\n"} {
		if kb, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) = %d, want an error", bad, kb)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		Workloads: []struct{ Name string }{{"w"}},
		EndToEnd: []metricDef{
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
			{Name: "sweep_s", Unit: "s", Better: "lower", Bound: 0.1},
			{Name: "sim_mcycles_per_s", Unit: "Mcycle/s", Better: "higher", Bound: 0.1},
		},
	}
	set := func(setup, sweep, rate float64) []setRecord {
		return []setRecord{{Workload: "w", Seed: 1, Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metric{
				"setup_s":           {setup, "s"},
				"sweep_s":           {sweep, "s"},
				"sim_mcycles_per_s": {rate, "Mcycle/s"},
			}}}}
	}
	base := set(0.004, 1.0, 10)
	for _, tc := range []struct {
		name string
		b    []setRecord
		pass bool
	}{
		{"same", set(0.004, 1.0, 10), true},
		{"within bounds", set(0.0049, 1.09, 9.1), true},
		{"faster", set(0.001, 0.5, 20), true},
		{"setup doubles under the floor", set(0.008, 1.0, 10), true},
		{"sweep slower", set(0.004, 1.2, 10), false},
		{"rate lower", set(0.004, 1.0, 8.5), false},
		{"setup slower above the floor", set(0.012, 1.0, 10), false},
	} {
		var out strings.Builder
		if got := compareSets(&out, spec, base, tc.b); got != tc.pass {
			t.Errorf("%s: pass = %v, want %v\n%s", tc.name, got, tc.pass, out.String())
		}
	}
	failed := set(0.004, 1.0, 10)
	failed[0].Result.Failed = 1
	var out strings.Builder
	if compareSets(&out, spec, base, failed) {
		t.Errorf("a set with a failed simulation passed\n%s", out.String())
	}
}
