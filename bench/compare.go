package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// setupFloor is the absolute change below which setup_s never counts as a
// regression: a set-up of a few milliseconds moves by more than its bound
// from host noise alone.
const setupFloor = 0.005 // s

func readSet(path string) ([]setRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []setRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var e setRecord
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// compareMain compares set file B against baseline A.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: want compare A.jsonl B.jsonl")
		return 2
	}
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var sets [2][]setRecord
	for i, path := range args {
		if sets[i], err = readSet(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !compareSets(os.Stdout, spec, sets[0], sets[1]) {
		return 1
	}
	return 0
}

// compareSets prints, per workload, each end-to-end metric's median in a
// and in b against its bound, and each exact count that differs. It reports
// whether b passes: no end-to-end metric worse than its bound, no exact
// count changed (when both sets ran the same seed), and no failed
// simulation.
func compareSets(w io.Writer, spec *benchSpec, a, b []setRecord) bool {
	ok := true
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, def := range spec.EndToEnd {
			va, vb := values(a, wl.Name, 0, def.Name), values(b, wl.Name, 0, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-26s missing (%d and %d runs)\n", def.Name, len(va), len(vb))
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			worse := change
			if def.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse > def.Bound && !(def.Name == "setup_s" && math.Abs(mb-ma) < setupFloor):
				verdict = "REGRESSED"
				ok = false
			case -worse > def.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "  %-26s %12.6g -> %-12.6g %+7.2f%%  bound %3.0f%%  %s\n",
				def.Name, ma, mb, 100*change, 100*def.Bound, verdict)
		}
		ok = compareExact(w, wl.Name, a, b) && ok
		for i, set := range [][]setRecord{a, b} {
			attempted, failed := 0, 0
			for _, e := range set {
				if e.Workload == wl.Name {
					attempted += e.Result.Attempted
					failed += e.Result.Failed
				}
			}
			fmt.Fprintf(w, "  %-26s %s: %d/%d\n", "error_rate", "ab"[i:i+1], failed, attempted)
			ok = ok && failed == 0
		}
	}
	return ok
}

// compareExact checks that the traced runs of both sets report identical
// exact counts; it compares only when every such run used the same seed.
func compareExact(w io.Writer, workload string, a, b []setRecord) bool {
	seeds := map[uint64]bool{}
	for _, set := range [][]setRecord{a, b} {
		for _, e := range set {
			if e.Workload == workload && e.Trace == 1 {
				seeds[e.Seed] = true
			}
		}
	}
	if len(seeds) != 1 {
		fmt.Fprintf(w, "  exact counts not compared: %d seeds among the traced runs\n", len(seeds))
		return true
	}
	ok := true
	for _, name := range exactMetricNames() {
		vs := append(values(a, workload, 1, name), values(b, workload, 1, name)...)
		for _, v := range vs {
			if v != vs[0] {
				fmt.Fprintf(w, "  %-26s EXACT COUNT DIFFERS: %v\n", name, vs)
				ok = false
				break
			}
		}
	}
	if ok {
		fmt.Fprintf(w, "  exact counts identical (%d metrics)\n", len(exactMetricNames()))
	}
	return ok
}

// values collects a metric from every run of a workload in one trace mode.
func values(set []setRecord, workload string, trace int, name string) []float64 {
	var out []float64
	for _, e := range set {
		if m, ok := e.Result.Metrics[name]; ok && e.Workload == workload && e.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// exactMetricNames lists the metrics exactCounts reports.
func exactMetricNames() []string {
	var names []string
	for name := range exactCounts(nil) {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
