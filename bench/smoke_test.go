package main

import (
	"strings"
	"testing"
)

// testLog sends failure reports to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestSmoke runs every workload, traced, for the fewest passes that yield
// a p90, and checks that it reports every metric BENCHMARK.json names, in
// the named unit, with no failed simulation. Seed 1 also checks every
// result against golden.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	spec, err := readSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		t.Run(sw.Name, func(t *testing.T) {
			w, err := workloadByName(sw.Name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := newRun(w, 1, testLog{t})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.measure(0, true); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Errorf("%d of %d simulations failed", r.failed, r.attempted)
			}
			all, err := r.metrics()
			if err != nil {
				t.Fatal(err)
			}
			for _, def := range append(spec.EndToEnd, spec.PerLayer...) {
				if m, ok := all[def.Name]; !ok {
					t.Errorf("%s not reported", def.Name)
				} else if m.Unit != def.Unit {
					t.Errorf("%s in %s, BENCHMARK.json says %s", def.Name, m.Unit, def.Unit)
				}
			}
		})
	}
}
