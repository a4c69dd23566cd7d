// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure, plus ablations for the design choices DESIGN.md calls out.
//
// Each figure benchmark runs its sweep once per b.N iteration on a
// narrowed scope (so `go test -bench=.` terminates in minutes) and reports
// the figure's headline quantities as custom metrics. The full paper-scale
// sweeps are produced by cmd/lockillerbench (see EXPERIMENTS.md); set
// LOCKILLER_FULL=1 to run the benchmarks at full scope too.
package repro

import (
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/priority"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

func full() bool { return os.Getenv("LOCKILLER_FULL") == "1" }

// benchWorkloads returns the figure-benchmark scope.
func benchWorkloads() []stamp.Profile {
	if full() {
		return stamp.Workloads()
	}
	return []stamp.Profile{stamp.Intruder(), stamp.Vacation(), stamp.Yada()}
}

func benchThreads() []int {
	if full() {
		return harness.ThreadCounts
	}
	return []int{2, 8}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.RenderTable1(io.Discard)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.RenderTable2(io.Discard)
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(1)
		f, err := harness.RunFig1(r)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64 = 1e9
		for _, sp := range f.Speedup {
			if sp < worst {
				worst = sp
			}
		}
		b.ReportMetric(worst, "worst-speedup-x")
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(1)
		f, err := harness.RunFig7(r, nil, benchWorkloads(), benchThreads())
		if err != nil {
			b.Fatal(err)
		}
		_, worstLk := f.MinSpeedup("LockillerTM", len(f.Threads)-1)
		_, worstBase := f.MinSpeedup("Baseline", len(f.Threads)-1)
		b.ReportMetric(worstLk, "lockiller-min-speedup-x")
		b.ReportMetric(worstBase, "baseline-min-speedup-x")
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(1)
		f, err := harness.RunFig8(r, benchWorkloads(), benchThreads())
		if err != nil {
			b.Fatal(err)
		}
		base := f.Rate["Baseline"]
		rwi := f.Rate["LockillerTM-RWI"]
		var mb, mr float64
		for i := range base {
			mb += base[i]
			mr += rwi[i]
		}
		b.ReportMetric(mr/mb, "rwi-commit-rate-gain-x")
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(1)
		f, err := harness.RunBreakdown(r, "Fig. 9",
			[]string{"Baseline", "LockillerTM-RWI", "LockillerTM-RWIL"}, benchWorkloads(), 32)
		if err != nil {
			b.Fatal(err)
		}
		_ = f
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(1)
		f, err := harness.RunFig10(r, benchWorkloads())
		if err != nil {
			b.Fatal(err)
		}
		// HTMLock must eliminate mutex aborts (the paper's key claim).
		var mutexShare float64
		for _, wl := range f.Workloads {
			mutexShare += f.Share["LockillerTM-RWIL"][wl][htm.CauseMutex]
		}
		b.ReportMetric(mutexShare, "rwil-mutex-share")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(1)
		f, err := harness.RunBreakdown(r, "Fig. 11",
			[]string{"Baseline", "LockillerTM-RWIL", "LockillerTM"}, benchWorkloads(), 2)
		if err != nil {
			b.Fatal(err)
		}
		_ = f
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(1)
		f, err := harness.RunFig12(r, benchWorkloads(), benchThreads())
		if err != nil {
			b.Fatal(err)
		}
		ob, ol := f.Headline()
		b.ReportMetric(ob, "over-baseline-x")
		b.ReportMetric(ol, "over-losa-x")
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(1)
		f, err := harness.RunFig13(r, benchWorkloads(), benchThreads())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.MaxOverBaseline["small"], "small-max-over-baseline-x")
	}
}

// --- Ablations ----------------------------------------------------------

// ablate runs one workload/thread point under a modified HTM config and
// reports cycles.
func ablate(b *testing.B, mod func(*harness.SystemDef), threads int) {
	b.Helper()
	wl := stamp.Intruder()
	for i := 0; i < b.N; i++ {
		sys, _ := harness.SystemByName("LockillerTM")
		if mod != nil {
			mod(&sys)
		}
		run, err := harness.Execute(harness.Spec{
			System: sys, Workload: wl, Threads: threads,
			Cache: harness.TypicalCache(), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.ExecCycles), "cycles")
		b.ReportMetric(run.CommitRate(), "commit-rate")
	}
}

// BenchmarkAblationPriority compares the priority policies behind the
// recovery mechanism (paper §III-A: insts-based vs progression vs static).
func BenchmarkAblationPriority(b *testing.B) {
	b.Run("insts-based", func(b *testing.B) { ablate(b, nil, 16) })
	b.Run("progression", func(b *testing.B) {
		ablate(b, func(s *harness.SystemDef) { s.HTM.Priority = priority.Progression{} }, 16)
	})
	b.Run("static", func(b *testing.B) {
		ablate(b, func(s *harness.SystemDef) { s.HTM.Priority = priority.Static{Value: 1} }, 16)
	})
}

// BenchmarkAblationRejectPolicy compares the three rejected-request
// policies (Table II's RAI/RRI/RWI distinction) on the full system.
func BenchmarkAblationRejectPolicy(b *testing.B) {
	for _, p := range []htm.RejectPolicy{htm.SelfAbort, htm.RetryLater, htm.WaitWakeup} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			ablate(b, func(s *harness.SystemDef) { s.HTM.Conflict = htm.Recovery{Policy: p} }, 16)
		})
	}
}

// BenchmarkAblationSignature sweeps the LLC overflow-signature size
// (false-positive pressure vs hardware cost).
func BenchmarkAblationSignature(b *testing.B) {
	for _, bits := range []int{256, 1024, 2048, 8192} {
		bits := bits
		b.Run(byteSize(bits), func(b *testing.B) {
			wl := stamp.Labyrinth() // signature-heavy workload
			for i := 0; i < b.N; i++ {
				sys, _ := harness.SystemByName("LockillerTM")
				sys.HTM.SignatureBits = bits
				run, err := harness.Execute(harness.Spec{
					System: sys, Workload: wl, Threads: 8,
					Cache: harness.TypicalCache(), Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(run.ExecCycles), "cycles")
			}
		})
	}
}

// BenchmarkAblationNoC compares the contention-modeling NoC against a
// perfect (fixed-latency) network.
func BenchmarkAblationNoC(b *testing.B) {
	run := func(b *testing.B, perfect bool) {
		wl := stamp.VacationHigh()
		for i := 0; i < b.N; i++ {
			sys, _ := harness.SystemByName("LockillerTM")
			p := coherence.DefaultParams()
			p.NoC.Perfect = perfect
			cfg := cpu.Config{Machine: p, HTM: sys.HTM, Sync: sys.Sync, Threads: 16, Seed: 1, Limit: 4_000_000_000}
			m := cpu.NewMachine(cfg, sys.Name, wl.Name, stamp.Programs(wl, 16, 1))
			res, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.ExecCycles), "cycles")
		}
	}
	b.Run("contended", func(b *testing.B) { run(b, false) })
	b.Run("perfect", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationProtocolLevels compares the paper's streamlined
// MESI-Two-Level-HTM against the MESI-Three-Level-HTM organization it
// replaced (private middle cache, flush-on-forward; §IV-A).
func BenchmarkAblationProtocolLevels(b *testing.B) {
	run := func(b *testing.B, mid bool) {
		wl := stamp.Vacation()
		for i := 0; i < b.N; i++ {
			sys, _ := harness.SystemByName("Baseline")
			p := coherence.DefaultParams()
			if mid {
				p.MidSize, p.MidWays = 64*1024, 8
			}
			cfg := cpu.Config{Machine: p, HTM: sys.HTM, Sync: sys.Sync, Threads: 8, Seed: 1, Limit: 4_000_000_000}
			m := cpu.NewMachine(cfg, sys.Name, wl.Name, stamp.Programs(wl, 8, 1))
			res, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.ExecCycles), "cycles")
			b.ReportMetric(res.CommitRate(), "commit-rate")
		}
	}
	b.Run("two-level", func(b *testing.B) { run(b, false) })
	b.Run("three-level", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPlacement compares packed vs spread thread placement on
// the mesh (the paper pins thread i to core i).
func BenchmarkAblationPlacement(b *testing.B) {
	run := func(b *testing.B, pl cpu.Placement) {
		wl := stamp.Intruder()
		for i := 0; i < b.N; i++ {
			sys, _ := harness.SystemByName("LockillerTM")
			cfg := cpu.Config{Machine: coherence.DefaultParams(), HTM: sys.HTM, Sync: sys.Sync,
				Threads: 8, Seed: 1, Limit: 4_000_000_000, Placement: pl}
			m := cpu.NewMachine(cfg, sys.Name, wl.Name, stamp.Programs(wl, 8, 1))
			res, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.ExecCycles), "cycles")
		}
	}
	b.Run("packed", func(b *testing.B) { run(b, cpu.PlacePacked) })
	b.Run("spread", func(b *testing.B) { run(b, cpu.PlaceSpread) })
}

// BenchmarkAblationRetryBudget sweeps TME_MAX_RETRIES.
func BenchmarkAblationRetryBudget(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		n := n
		b.Run(itoa(n), func(b *testing.B) {
			ablate(b, func(s *harness.SystemDef) { s.HTM.MaxRetries = n }, 16)
		})
	}
}

// --- Component micro-benchmarks ------------------------------------------

// nopHandler discards delivered events, so BenchmarkNoCSend measures only
// the send path.
type nopHandler struct{}

func (nopHandler) OnEvent(uint8, uint64, any) {}

// BenchmarkNoCSend measures SendEvent, the path every protocol message
// takes, on Table I's 4x8 mesh and on the 256- and 1024-tile meshes of the
// scaling sweep. Source i%T and destination 7i%T each visit every tile of a
// T-tile grid (T is a power of two), so the routes spread over the whole
// grid; at 32 tiles this is the same message sequence the rung always sent.
func BenchmarkNoCSend(b *testing.B) {
	for _, tiles := range []int{32, 256, 1024} {
		b.Run(fmt.Sprintf("tiles=%d", tiles), func(b *testing.B) {
			e := sim.NewEngine()
			topo, err := topology.New("", tiles)
			if err != nil {
				b.Fatal(err)
			}
			net := noc.New(e, topo, noc.DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.SendEvent(i%tiles, (i*7)%tiles, noc.DataFlits, nopHandler{}, 0, 0, nil)
				if i%1024 == 0 {
					for e.Step() {
					}
				}
			}
			for e.Step() {
			}
		})
	}
}

func BenchmarkSignatureAdd(b *testing.B) {
	s := htm.NewSignature(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(mem.Line(i))
		if i%4096 == 0 {
			s.Clear()
		}
	}
}

// BenchmarkScalingCores measures the simulator's cost per simulated
// core-cycle as the machine grows (DESIGN.md §13): same workload and
// thread count at every point, so the sweep isolates what an idle-or-busy
// tile costs. The metric of record is ns/core-cycle — flat across the
// sweep means machine size adds nothing beyond the extra tiles; machines
// above 64 cores run the two-level directory (clusters of 16), matching
// the harness's ScalingSpec shape.
func BenchmarkScalingCores(b *testing.B) {
	wl := stamp.Intruder()
	sys, _ := harness.SystemByName("LockillerTM")
	for _, cores := range []int{32, 64, 128, 256} {
		cores := cores
		b.Run(fmt.Sprint(cores), func(b *testing.B) {
			var cycles uint64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				s := harness.Spec{System: sys, Workload: wl, Threads: 8,
					Cache: harness.TypicalCache(), Seed: 1, Cores: cores}
				if cores > 64 {
					s.ClusterSize = 16
				}
				res, err := harness.Execute(s)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.ExecCycles
			}
			elapsed := float64(time.Since(start).Nanoseconds())
			b.ReportMetric(elapsed/(float64(cycles)*float64(cores)), "ns/core-cycle")
			b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
		})
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// End-to-end simulator speed: simulated cycles per wall second. Each
	// iteration builds the machine and runs it, and ns/event divides the
	// whole of it by the events it ran.
	wl := stamp.Kmeans()
	sys, _ := harness.SystemByName("LockillerTM")
	var cycles, events uint64
	for i := 0; i < b.N; i++ {
		p := coherence.DefaultParams()
		cfg := cpu.Config{Machine: p, HTM: sys.HTM, Sync: sys.Sync, Threads: 8, Seed: 1, Limit: 4_000_000_000}
		m := cpu.NewMachine(cfg, sys.Name, wl.Name, stamp.Programs(wl, 8, 1))
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.ExecCycles
		events += m.Engine.Executed()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
	reportEvents(b, events)
}

// BenchmarkHitChain measures the steady-state per-op cost of the core's
// instruction advance: a single thread streaming compute ops and guaranteed
// L1 hits, each one event (a compute delay or a hit completion). The
// program is built as repeated chunks sharing one ops backing array, so
// setup cost stays O(1) in b.N and the steady state is pinned at 0
// allocs/op — any allocation that appears here is a regression on the
// compute and hit paths themselves.
func BenchmarkHitChain(b *testing.B) {
	const lines = 64   // working set: one line per L1 set, fits trivially
	const chunk = 4096 // ops per section; section overhead amortizes away
	base := mem.Line(1 << 21)
	warm := make([]cpu.Op, lines)
	for i := range warm {
		warm[i] = cpu.Write(base + mem.Line(i)) // fill to E/M: later ops all hit
	}
	body := make([]cpu.Op, chunk)
	for i := range body {
		switch i % 4 {
		case 0, 2:
			body[i] = cpu.Compute(1)
		case 1:
			body[i] = cpu.Read(base + mem.Line(i%lines))
		default:
			body[i] = cpu.Write(base + mem.Line((i+7)%lines))
		}
	}
	prog := cpu.Sections{cpu.Plain(warm)}
	for done := 0; done < b.N; done += chunk {
		prog = append(prog, cpu.Plain(body))
	}
	cfg := cpu.Config{Machine: coherence.DefaultParams(), Threads: 1, Seed: 1, Limit: 40_000_000_000}
	m := cpu.NewMachine(cfg, "bench", "hit-chain", []cpu.Program{prog})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// telemetryBenchSpec is the BenchmarkSimulatorThroughput machine point
// (kmeans, LockillerTM, 8 threads, seed 1) expressed as a harness spec, so
// the overhead benchmarks below differ from the throughput benchmark only
// in which observers ride along.
func telemetryBenchSpec(b *testing.B) harness.Spec {
	sys, err := harness.SystemByName("LockillerTM")
	if err != nil {
		b.Fatal(err)
	}
	return harness.Spec{
		System: sys, Workload: stamp.Kmeans(),
		Threads: 8, Cache: harness.TypicalCache(), Seed: 1,
	}
}

func BenchmarkTelemetryEnabledOverhead(b *testing.B) {
	// Full observability on (sampling, Chrome recording, provenance) at the
	// default interval: the price of actually watching, for the DESIGN.md
	// interval/overhead trade-off table.
	spec := telemetryBenchSpec(b)
	var cycles, samples uint64
	for i := 0; i < b.N; i++ {
		tel := telemetry.New(telemetry.Config{Interval: 10_000, Chrome: true})
		res, err := harness.ExecuteWith(spec, harness.ExecOptions{Telemetry: tel})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.ExecCycles
		samples += uint64(tel.Reg.Samples())
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
}

func BenchmarkObsDisabledOverhead(b *testing.B) {
	// The same run as BenchmarkSimulatorThroughput with no observer
	// attached: every tracer, telemetry and probe callsite takes its
	// disabled branch. Compare against SimulatorThroughput within one BENCH
	// file — the disabled hooks have a <= 1% runtime budget and must add
	// zero allocations (allocs/op here equals SimulatorThroughput's).
	spec := telemetryBenchSpec(b)
	b.ReportAllocs()
	var cycles, events uint64
	for i := 0; i < b.N; i++ {
		res, err := harness.ExecuteWith(spec, harness.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.ExecCycles
		events += res.EventsExecuted
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func BenchmarkObsEnabledOverhead(b *testing.B) {
	// The self-profiler on: two host-clock reads plus a histogram update per
	// event — the price of actually profiling, recorded for the DESIGN.md
	// §14 trade-off discussion.
	spec := telemetryBenchSpec(b)
	b.ReportAllocs()
	var cycles, observed uint64
	for i := 0; i < b.N; i++ {
		p := obs.NewProfiler()
		res, err := harness.ExecuteWith(spec, harness.ExecOptions{Probe: p})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.ExecCycles
		observed += p.Events()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(observed)/float64(b.N), "events/op")
}

// reuseBenchSpec is the machine-reuse benchmark point: the full Table I
// machine (32 cores, typical cache) under the paper's headline system, the
// shape whose construction cost the reuse path amortizes.
func reuseBenchSpec() harness.Spec {
	sys, _ := harness.SystemByName("LockillerTM")
	return harness.Spec{System: sys, Workload: stamp.Kmeans(), Threads: 8,
		Cache: harness.TypicalCache(), Seed: 1}
}

// BenchmarkMachineConstruction is the cost Reset avoids: building one
// machine from nothing (caches, directory, NoC, cores, programs). Its
// table1 case is the Table I machine BenchmarkMachineReset resets; scale256
// is the 256-core, clustered-directory machine every scaling-sweep spec
// builds (harness.ScalingSpec).
func BenchmarkMachineConstruction(b *testing.B) {
	sys, _ := harness.SystemByName("LockillerTM")
	for _, c := range []struct {
		name string
		spec harness.Spec
	}{
		{"table1", reuseBenchSpec()},
		{"scale256", harness.ScalingSpec(sys, stamp.Intruder(), 256)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := harness.NewMachineFor(c.spec, harness.ExecOptions{})
				if m == nil {
					b.Fatal("no machine")
				}
			}
		})
	}
}

// BenchmarkMachineReset measures cpu.Machine.Reset on the same shape.
// Reset cost is shape-proportional (generation bumps plus fixed per-core
// loops), not dirty-state-proportional, so reset-after-reset iterations
// measure the true per-sweep-point cost. The DESIGN.md §15 contract is
// that this stays >= 5x cheaper than BenchmarkMachineConstruction.
func BenchmarkMachineReset(b *testing.B) {
	spec := reuseBenchSpec()
	m := harness.NewMachineFor(spec, harness.ExecOptions{})
	progs := stamp.Programs(spec.Workload, spec.Threads, spec.Seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(spec.Seed, spec.System.Name, spec.Workload.Name, progs)
	}
}

// BenchmarkPrograms is the program-generation rung: stamp.Programs for
// intruder at 32 threads, then every section of every thread drawn into
// one reused buffer, as the cores draw them during a run. allocs/op is
// Programs' fixed two objects; the ops themselves allocate nothing.
func BenchmarkPrograms(b *testing.B) {
	wl := stamp.Intruder()
	var ops []cpu.Op
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range stamp.Programs(wl, 32, 1) {
			for s := 0; s < p.Len(); s++ {
				ops = p.AppendOps(ops[:0], s, 1)
			}
		}
	}
}

// BenchmarkSpinWaitRun is the rung that spins: Baseline on intruder at 32
// threads, as Reset+Run on one machine. Baseline keeps the classic HTM
// interface, so a core that finds the fallback lock held re-reads it every
// 16 cycles before xbegin (Listing 1's retry strategy); the bench/ loops run
// LockillerTM, which never spins. allocs/op is that path's steady-state
// allocation, and events/op must not move when it changes.
func BenchmarkSpinWaitRun(b *testing.B) {
	sys, _ := harness.SystemByName("Baseline")
	spec := harness.Spec{System: sys, Workload: stamp.Intruder(), Threads: 32,
		Cache: harness.TypicalCache(), Seed: 1}
	progs := stamp.Programs(spec.Workload, spec.Threads, spec.Seed)
	m := harness.NewMachineFor(spec, harness.ExecOptions{})
	if _, err := m.Run(); err != nil { // warm: every timed run is a Reset+Run
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		m.Reset(spec.Seed, sys.Name, spec.Workload.Name, progs)
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.EventsExecuted
	}
	reportEvents(b, events)
}

// reportEvents reports the simulated events per op and the ladder's unit,
// host ns per simulated event, over the whole timed iteration.
func reportEvents(b *testing.B, events uint64) {
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkSweepThroughput runs a small multi-workload sweep through one
// Runner per iteration — the end-to-end form of the construction-vs-reset
// trade: every spec after the first of each shape runs on a reset machine
// from the Runner's pool instead of a fresh build.
func BenchmarkSweepThroughput(b *testing.B) {
	// The `lockillerbench -fig 13 -quick` shape: four systems and three
	// light workloads over threads {2, 8, 32} on the small and large cache
	// points. Each (system, threads, cache) shape is constructed once and
	// reset for the other two workloads, so 48 of the 72 specs skip
	// construction — and the 32-thread shapes, whose machines are the most
	// expensive to build, are where reset pays the most.
	sysNames := []string{"CGL", "Baseline", "LosaTM-SAFU", "LockillerTM"}
	wls := []stamp.Profile{stamp.Intruder(), stamp.Kmeans(), stamp.SSCA2()}
	var specs []harness.Spec
	for _, sn := range sysNames {
		sys, _ := harness.SystemByName(sn)
		for _, wl := range wls {
			for _, th := range []int{2, 8, 32} {
				for _, c := range []harness.CacheConfig{harness.SmallCache(), harness.LargeCache()} {
					specs = append(specs, harness.Spec{System: sys, Workload: wl,
						Threads: th, Cache: c, Seed: 1})
				}
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(1)
		r.Workers = 1 // serialize so the reset savings are not masked by idle cores
		if err := r.RunAll(specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs)), "specs/op")
}

// --- tiny helpers (stdlib only, no fmt in hot paths) ---------------------

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func byteSize(bits int) string { return itoa(bits) + "b" }
