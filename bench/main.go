// Command bench is the repository benchmark. It runs one workload of the
// simulator for a fixed wall time, timing the simulator only from outside,
// around calls to its public functions; checks every simulated result
// against an architectural digest; and prints each metric BENCHMARK.json
// names, ending with one JSON result line. See README.md.
//
//	bench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	bench set [SEED [FILE]]     every workload untraced, then traced
//	bench compare A B           compare two set files under the bounds
//	bench golden                print golden.json for the current model
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// specPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const specPath = "BENCHMARK.json"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "set":
			os.Exit(setMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "golden":
			os.Exit(goldenMain())
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []metricDef             `json:"end_to_end"`
	PerLayer   []metricDef             `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "input seed, from 1; the programs are generated from it")
	seconds := fs.Int("seconds", 0, "measured wall time (0: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "0: print the end-to-end metrics; 1: add the traced pass and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seed < 1 || *seed > 1<<32 {
		fmt.Fprintln(os.Stderr, "bench: want -workload NAME [-seed 1..2^32] [-seconds S] [-trace 0|1]")
		return 2
	}
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	if *seconds == 0 {
		d = time.Duration(spec.RunSeconds) * time.Second
	}
	res, err := runWorkload(w, *seed, d, *trace == 1, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// runWorkload measures w and returns the metrics BENCHMARK.json lists for
// the mode: the end-to-end ones untraced, the per-layer ones traced. It
// prints them, and the counts behind them, as it goes.
func runWorkload(w workload, seed uint64, d time.Duration, traced bool, spec *benchSpec) (*result, error) {
	r, err := newRun(w, seed, os.Stderr)
	if err != nil {
		return nil, err
	}
	if err := r.measure(d, traced); err != nil {
		return nil, err
	}
	all, err := r.metrics()
	if err != nil {
		return nil, err
	}
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	fmt.Printf("%s seed=%d trace=%t: %d passes, %d simulations timed (run_ms samples), %d attempted, error_rate %d/%d\n",
		w.name, seed, traced, len(r.passS), len(r.simMs), r.attempted, r.failed, r.attempted)
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, def := range defs {
		m, ok := all[def.Name]
		if !ok {
			return nil, fmt.Errorf("%s names metric %s, which this run did not measure", specPath, def.Name)
		}
		if m.Unit != def.Unit {
			return nil, fmt.Errorf("%s gives %s in %s, the benchmark measures %s", specPath, def.Name, def.Unit, m.Unit)
		}
		res.Metrics[def.Name] = m
		fmt.Printf("  %-34s %14.6g %s\n", def.Name, m.Value, m.Unit)
	}
	return res, nil
}

// setRecord is one line of a set file: a run's identity and its result.
type setRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// setMain runs every workload untraced and then traced, each in its own
// process, and writes one setRecord per run to the set file.
func setMain(args []string) int {
	seed := uint64(1)
	if len(args) > 0 {
		v, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil || len(args) > 2 {
			fmt.Fprintln(os.Stderr, "bench: want set [SEED [FILE]]")
			return 2
		}
		seed = v
	}
	path := fmt.Sprintf("bench-set-%d.jsonl", seed)
	if len(args) == 2 {
		path = args[1]
	}
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var lines bytes.Buffer
	enc := json.NewEncoder(&lines)
	for trace := 0; trace <= 1; trace++ {
		for _, w := range spec.Workloads {
			var stdout bytes.Buffer
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
				"-trace", strconv.Itoa(trace))
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%d: %v\n", w.Name, trace, err)
				return 1
			}
			rec := setRecord{Workload: w.Name, Seed: seed, Trace: trace}
			if err := json.Unmarshal(lastLine(stdout.Bytes()), &rec.Result); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%d: result line: %v\n", w.Name, trace, err)
				return 1
			}
			_ = enc.Encode(rec) // rec was decoded from JSON, and buffer writes cannot fail
		}
	}
	if err := os.WriteFile(path, lines.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("set written to %s\n", path)
	return 0
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}
