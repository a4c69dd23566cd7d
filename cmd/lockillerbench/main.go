// Command lockillerbench regenerates the paper's tables and figures.
//
// Usage:
//
//	lockillerbench -fig 7            # regenerate one figure (1,7,8,9,10,11,12,13)
//	lockillerbench -table 1          # print Table I or II
//	lockillerbench -all              # the full evaluation (long)
//	lockillerbench -fig 7 -quick     # narrowed sweep for a fast look
//	lockillerbench -v                # log every completed simulation
//	lockillerbench -fig 7 -cpuprofile cpu.out -memprofile mem.out
//	                                 # profile the run (inspect with go tool pprof)
//	lockillerbench -fig 7 -obs       # stream sweep progress (done/total, ETA) to stderr
//	lockillerbench -fig 7 -ledger runs.jsonl
//	                                 # append one schema-versioned JSONL record per run
//	lockillerbench -fig 7 -selfprofile
//	                                 # print the engine self-profile after the sweep
//	lockillerbench -fig 7 -results out/cache
//	                                 # persistent content-addressed result cache
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stamp"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (1,7,8,9,10,11,12,13)")
	table := flag.Int("table", 0, "table number to print (1,2)")
	all := flag.Bool("all", false, "regenerate everything")
	quick := flag.Bool("quick", false, "narrow the sweep (3 workloads, 3 thread counts)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	verbose := flag.Bool("v", false, "log each completed simulation")
	csvOut := flag.Bool("csv", false, "emit machine-readable CSV instead of text")
	chart := flag.Bool("chart", false, "render ASCII charts after the text tables")
	check := flag.Bool("check", false, "evaluate the paper's qualitative claims (PASS/FAIL) and exit")
	scaling := flag.Bool("scaling", false, "run the core-count scaling sweep (threads = cores, 32..256)")
	scalingWl := flag.String("scaling-workload", "intruder", "workload for the -scaling sweep")
	resultsDir := flag.String("results", "", "content-addressed result cache directory (e.g. out/cache), checked before each run and written incrementally")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	workers := flag.Int("workers", 0, "parallel simulations (0 = LOCKILLER_WORKERS env, then one per CPU)")
	obsProgress := flag.Bool("obs", false, "stream sweep progress events (done/total, per-spec wall, ETA) to stderr")
	ledgerPath := flag.String("ledger", "", "append one JSONL ledger record per simulation to this file")
	obsRedact := flag.Bool("obs-redact", false, "zero host-derived ledger fields (wall, allocator) for byte-stable diffing")
	selfProfile := flag.Bool("selfprofile", false, "profile the event engine itself and print the report after the sweep")
	flag.Parse()

	var disk *harness.DiskCache
	if *resultsDir != "" {
		// Opened before any other output file, so a refused path leaves
		// nothing behind. Every fresh result is written the moment it
		// finishes, keyed by (key, seed, schema version), so interrupted
		// sweeps lose nothing and repeat sweeps are near-free.
		d, err := harness.OpenDiskCache(*resultsDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockillerbench:", err)
			os.Exit(2)
		}
		disk = d
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockillerbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lockillerbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lockillerbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accumulated allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "lockillerbench:", err)
			}
		}()
	}

	r := harness.NewRunner(*seed)
	r.Workers = harness.DefaultWorkers(*workers)
	if *obsProgress {
		r.Progress = &obs.TextSink{W: os.Stderr}
	}
	if *ledgerPath != "" {
		r.Ledger = &obs.Ledger{Redact: *obsRedact}
		// Written on normal exit; error paths that os.Exit early drop the
		// partial ledger by design.
		defer func() {
			f, err := os.Create(*ledgerPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lockillerbench:", err)
				return
			}
			defer f.Close()
			if _, err := r.Ledger.WriteTo(f); err != nil {
				fmt.Fprintln(os.Stderr, "lockillerbench:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "ledger: wrote %d records to %s\n", r.Ledger.Len(), *ledgerPath)
		}()
	}
	if *selfProfile {
		r.Profiler = obs.NewProfiler()
		defer r.Profiler.Render(os.Stderr)
	}
	if disk != nil {
		r.Disk = disk
		fmt.Fprintf(os.Stderr, "results: content-addressed cache at %s\n", disk.Dir())
	}
	if *verbose {
		r.Log = func(s string) { fmt.Fprintln(os.Stderr, "  run:", s) }
	}

	workloads := stamp.Workloads()
	threads := harness.ThreadCounts
	if *quick {
		workloads = []stamp.Profile{stamp.Intruder(), stamp.Vacation(), stamp.Yada()}
		threads = []int{2, 8, 32}
	}

	switch {
	case *check:
		failed, err := harness.RunChecks(r, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockillerbench:", err)
			os.Exit(1)
		}
		if failed > 0 {
			fmt.Printf("%d claim(s) FAILED\n", failed)
			os.Exit(1)
		}
		fmt.Println("all claims PASS")
	case *scaling:
		wl, err := stamp.ByName(*scalingWl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockillerbench:", err)
			os.Exit(1)
		}
		cores := harness.ScalingCores
		if *quick {
			cores = []int{32, 64}
		}
		f, err := harness.RunFigScaling(r, wl, cores)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockillerbench:", err)
			os.Exit(1)
		}
		f.Render(os.Stdout)
	case *table == 1:
		harness.RenderTable1(os.Stdout)
	case *table == 2:
		harness.RenderTable2(os.Stdout)
	case *all:
		for _, n := range []int{1, 7, 8, 9, 10, 11, 12, 13} {
			runFig(r, n, workloads, threads, *csvOut, *chart)
		}
	case *fig != 0:
		runFig(r, *fig, workloads, threads, *csvOut, *chart)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runFig(r *harness.Runner, n int, workloads []stamp.Profile, threads []int, csvOut, chart bool) {
	var f harness.Figure
	var err error
	switch n {
	case 1:
		f, err = harness.RunFig1(r)
	case 7:
		f, err = harness.RunFig7(r, nil, workloads, threads)
	case 8:
		f, err = harness.RunFig8(r, workloads, threads)
	case 9:
		f, err = harness.RunBreakdown(r, "Fig. 9",
			[]string{"Baseline", "LockillerTM-RWI", "LockillerTM-RWIL"}, workloads, 32)
	case 10:
		f, err = harness.RunFig10(r, workloads)
	case 11:
		f, err = harness.RunBreakdown(r, "Fig. 11",
			[]string{"Baseline", "LockillerTM-RWIL", "LockillerTM"}, workloads, 2)
	case 12:
		f, err = harness.RunFig12(r, workloads, threads)
	case 13:
		f, err = harness.RunFig13(r, workloads, threads)
	default:
		fmt.Fprintf(os.Stderr, "lockillerbench: no figure %d (have 1,7,8,9,10,11,12,13)\n", n)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockillerbench:", err)
		os.Exit(1)
	}
	if csvOut {
		if e, ok := f.(harness.CSVExporter); ok {
			if err := e.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "lockillerbench:", err)
				os.Exit(1)
			}
			return
		}
	}
	f.Render(os.Stdout)
	if chart {
		if c, ok := f.(harness.ChartRenderer); ok {
			c.RenderChart(os.Stdout)
		}
	}
	fmt.Println()
}
