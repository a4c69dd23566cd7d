// Command lockillersim runs one (system, workload, threads, cache)
// simulation and prints its statistics: execution cycles, commit rate,
// abort causes, and the execution-time breakdown.
//
// Usage:
//
//	lockillersim -system LockillerTM -workload intruder -threads 8 [-cache small] [-seed 1]
//	lockillersim -selfprofile        # profile the event engine and print the report
//	lockillersim -ledger run.jsonl   # write this run's ledger record (JSONL)
//	lockillersim -results out/cache  # check/fill the content-addressed result cache
//	lockillersim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/stamp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	system := flag.String("system", "Baseline", "Table II system name")
	workload := flag.String("workload", "intruder", "STAMP workload name")
	threads := flag.Int("threads", 2, "thread count (2..32)")
	cacheName := flag.String("cache", "typical", "cache config: typical, small, large")
	seed := flag.Uint64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list systems and workloads, then exit")
	traceCats := flag.String("trace", "", "record events: comma-separated categories (proto,conflict,tx,htmlock,lock,noc) or 'all'")
	traceN := flag.Int("tracen", 200, "number of trace events to retain")
	showTraffic := flag.Bool("traffic", false, "print the memory-subsystem traffic summary")
	showTransitions := flag.Bool("transitions", false, "print the protocol-table transition heat profile")
	threeLevel := flag.Bool("threelevel", false, "use the MESI-Three-Level-HTM organization (private middle cache)")
	exportPath := flag.String("export", "", "write the generated thread programs as JSON and exit")
	importPath := flag.String("import", "", "replay thread programs from a JSON file instead of generating them")
	metricsPath := flag.String("metrics", "", "write sampled metrics time-series + conflict provenance (JSON, or CSV series if the path ends in .csv)")
	interval := flag.Uint64("interval", 10_000, "telemetry sampling interval in simulated cycles")
	chromePath := flag.String("chrometrace", "", "write a Chrome-trace-event (Perfetto) JSON trace to this path")
	hotLines := flag.Int("hot-lines", 16, "number of hottest conflict lines to report")
	cores := flag.Int("cores", 0, "scale the machine to N cores on a near-square grid (0 = Table I's 32)")
	topo := flag.String("topo", "", "interconnect topology: mesh, torus, or cmesh (default: Table I's mesh)")
	cluster := flag.Int("cluster", 0, "two-level directory cluster size (0 = flat directory)")
	resultsDir := flag.String("results", "", "content-addressed result cache directory shared with lockillerbench (checked before running, stored after; ignored for instrumented or custom runs)")
	selfProfile := flag.Bool("selfprofile", false, "profile the event engine (host-side) and print the self-profile report")
	ledgerPath := flag.String("ledger", "", "write this run's ledger record to the file as JSONL")
	obsRedact := flag.Bool("obs-redact", false, "zero host-derived ledger fields (wall, allocator) for byte-stable diffing")
	flag.Parse()

	if *list {
		fmt.Println("Systems (Table II):")
		for _, s := range harness.Systems() {
			fmt.Printf("  %-18s %s\n", s.Name, s.Desc)
		}
		fmt.Println("Workloads (STAMP):")
		for _, w := range stamp.Workloads() {
			fmt.Printf("  %s\n", w.Name)
		}
		return
	}

	sys, err := harness.SystemByName(*system)
	if err != nil {
		fatal(err)
	}
	wl, err := stamp.ByName(*workload)
	if err != nil {
		fatal(err)
	}
	var cache harness.CacheConfig
	switch *cacheName {
	case "typical":
		cache = harness.TypicalCache()
	case "small":
		cache = harness.SmallCache()
	case "large":
		cache = harness.LargeCache()
	default:
		fatal(fmt.Errorf("unknown cache config %q", *cacheName))
	}

	var tracer *trace.Tracer
	if *traceCats != "" {
		sel := *traceCats
		if sel == "all" {
			sel = ""
		}
		cats, err := trace.ParseCategories(sel)
		if err != nil {
			fatal(err)
		}
		tracer = trace.New(*traceN, cats)
	}
	spec := harness.Spec{System: sys, Workload: wl, Threads: *threads, Cache: cache, Seed: *seed,
		Cores: *cores, Topo: *topo, ClusterSize: *cluster}
	var imported []cpu.Program
	if *importPath != "" {
		if imported, err = importPrograms(*importPath); err != nil {
			fatal(err)
		}
		spec.Threads = len(imported)
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	if *exportPath != "" {
		f, err := os.Create(*exportPath)
		if err != nil {
			fatal(err)
		}
		progs := stamp.Programs(wl, *threads, *seed)
		if err := cpu.ExportPrograms(f, progs, sys.HTM.MaxRetries+1); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d thread programs to %s\n", len(progs), *exportPath)
		return
	}
	var tel *telemetry.Telemetry
	if *metricsPath != "" || *chromePath != "" {
		tel = telemetry.New(telemetry.Config{
			Interval: *interval,
			HotLines: *hotLines,
			Chrome:   *chromePath != "",
		})
	}
	var prof *obs.Profiler
	opts := harness.ExecOptions{Tracer: tracer, Telemetry: tel}
	if *selfProfile {
		prof = obs.NewProfiler()
		opts.Probe = prof // never wrap a nil *Profiler in the interface
	}
	// The disk cache only serves the plain execution path: instrumented or
	// custom runs produce side outputs (traces, telemetry, profiles) a
	// cached stats.Run cannot reproduce, and import/threelevel runs are not
	// captured by the spec key at all.
	var disk *harness.DiskCache
	cacheable := *importPath == "" && !*threeLevel && tracer == nil && tel == nil && prof == nil
	if *resultsDir != "" && cacheable {
		if disk, err = harness.OpenDiskCache(*resultsDir); err != nil {
			fatal(err)
		}
	}
	var run *stats.Run
	cacheSrc := ""
	timer := obs.StartTimer()
	mem := obs.TakeMemSnapshot()
	switch {
	case *importPath != "" || *threeLevel:
		run, err = runCustom(spec, opts, imported, *threeLevel)
	default:
		if disk != nil {
			if cached, ok := disk.Load(spec.Key(), *seed); ok {
				run, cacheSrc = cached, "disk"
			}
		}
		if run == nil {
			run, err = harness.ExecuteWith(spec, opts)
			if err == nil && disk != nil {
				if serr := disk.Store(spec.Key(), *seed, run); serr != nil {
					fmt.Fprintln(os.Stderr, "lockillersim:", serr)
				}
			}
		}
	}
	wall := timer.Elapsed()
	if *ledgerPath != "" {
		// Written even when the run failed, so error records land in the
		// ledger with their error field set.
		led := &obs.Ledger{Redact: *obsRedact}
		led.Append(harness.LedgerRecord(spec, run, err, wall, mem.Delta(), cacheSrc))
		if werr := writeFile(*ledgerPath, func(f *os.File) error {
			_, e := led.WriteTo(f)
			return e
		}); werr != nil {
			fatal(werr)
		}
	}
	if err != nil {
		fatal(err)
	}

	if cacheSrc != "" {
		fmt.Printf("cached    : %s (%s)\n", cacheSrc, *resultsDir)
	}
	fmt.Printf("system    : %s\nworkload  : %s\nthreads   : %d\ncache     : %s\n",
		sys.Name, wl.Name, spec.Threads, cache.Name)
	if *cores > 0 || *topo != "" || *cluster > 0 {
		p := spec.MachineParams()
		kind := p.Topo
		if kind == "" {
			kind = "mesh"
		}
		w, h, _, _ := topology.Grid(p.Topo, p.Cores) // validated above
		fmt.Printf("machine   : %d cores, %s %dx%d", p.Cores, kind, w, h)
		if p.ClusterSize > 0 {
			fmt.Printf(", two-level directory (clusters of %d)", p.ClusterSize)
		}
		fmt.Println()
	}
	fmt.Printf("cycles    : %d\nsections  : %d\ncommitrate: %.4f\n",
		run.ExecCycles, run.Sections(), run.CommitRate())
	total, by := run.TotalAborts()
	fmt.Printf("aborts    : %d", total)
	for c := htm.CauseNone + 1; int(c) <= htm.NumCauses; c++ {
		if n := by[c]; n > 0 {
			fmt.Printf("  %s=%d", c, n)
		}
	}
	fmt.Println()
	bd := run.Breakdown()
	fmt.Printf("breakdown :")
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		fmt.Printf("  %s=%.3f", c, bd[c])
	}
	fmt.Println()
	if *showTraffic {
		run.Traffic.Render(os.Stdout)
	}
	if *showTransitions {
		fmt.Println("transition heat profile:")
		stats.RenderTransitionProfile(os.Stdout, run.Transitions)
	}
	if tracer != nil {
		fmt.Println("trace:")
		tracer.Render(os.Stdout)
	}
	if tel != nil {
		tel.RenderProvenance(os.Stdout, *hotLines)
		if *metricsPath != "" {
			if err := writeFile(*metricsPath, func(f *os.File) error {
				if len(*metricsPath) > 4 && (*metricsPath)[len(*metricsPath)-4:] == ".csv" {
					return tel.WriteMetricsCSV(f)
				}
				return tel.WriteMetricsJSON(f)
			}); err != nil {
				fatal(err)
			}
			fmt.Printf("metrics   : wrote %s (%d samples)\n", *metricsPath, tel.Reg.Samples())
		}
		if *chromePath != "" {
			if err := writeFile(*chromePath, func(f *os.File) error { return tel.WriteChromeTrace(f) }); err != nil {
				fatal(err)
			}
			fmt.Printf("trace file: wrote %s (load in ui.perfetto.dev)\n", *chromePath)
		}
	}
	if prof != nil {
		prof.Render(os.Stdout)
	}
	if *ledgerPath != "" {
		fmt.Printf("ledger    : wrote %s (1 record)\n", *ledgerPath)
	}
}

// writeFile creates path, runs write, and closes it, returning the first
// error encountered.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// importPrograms reads replayed thread programs from a JSON file.
func importPrograms(path string) ([]cpu.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cpu.ImportPrograms(f)
}

// runCustom executes a spec with non-standard machine options: replayed
// programs (non-nil progs, one per spec thread) and/or the three-level
// protocol organization.
func runCustom(spec harness.Spec, opts harness.ExecOptions, progs []cpu.Program, threeLevel bool) (*stats.Run, error) {
	if progs == nil {
		progs = stamp.Programs(spec.Workload, spec.Threads, spec.Seed)
	}
	cfg := spec.Config()
	if threeLevel {
		cfg.Machine.MidSize, cfg.Machine.MidWays = 64*1024, 8
	}
	m := cpu.NewMachine(cfg, spec.System.Name, spec.Workload.Name, progs)
	m.Observe(opts)
	return m.Run()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lockillersim:", err)
	os.Exit(1)
}
