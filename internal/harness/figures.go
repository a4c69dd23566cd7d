package harness

import (
	"fmt"
	"io"
	"math"

	"repro/internal/coherence"
	"repro/internal/htm"
	"repro/internal/stamp"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Figure is a regenerated table/figure from the paper's evaluation.
type Figure interface {
	Render(w io.Writer)
}

// abortCauses is the plotting order of Fig. 10.
var abortCauses = []htm.AbortCause{
	htm.CauseMC, htm.CauseLock, htm.CauseMutex,
	htm.CauseNonTx, htm.CauseOverflow, htm.CauseFault,
}

// breakdownOrder is the plotting order of Figs. 9/11.
var breakdownOrder = []stats.Category{
	stats.CatHTM, stats.CatAborted, stats.CatLock, stats.CatSwitchLock,
	stats.CatNonTx, stats.CatWaitLock, stats.CatRollback,
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// --- Fig. 1 ------------------------------------------------------------

// Fig1 is the motivation figure: requester-win best-effort HTM speedup
// over CGL at 2 threads per workload.
type Fig1 struct {
	Workloads []string
	Speedup   []float64
}

// RunFig1 regenerates Fig. 1.
func RunFig1(r *Runner) (*Fig1, error) {
	base := mustSystem("Baseline")
	f := &Fig1{}
	var specs []Spec
	for _, wl := range stamp.Workloads() {
		specs = append(specs,
			Spec{System: mustSystem("CGL"), Workload: wl, Threads: 2, Cache: TypicalCache()},
			Spec{System: base, Workload: wl, Threads: 2, Cache: TypicalCache()})
	}
	if err := r.RunAll(specs); err != nil {
		return nil, err
	}
	for _, wl := range stamp.Workloads() {
		s, err := r.Speedup(base, wl, 2, TypicalCache())
		if err != nil {
			return nil, err
		}
		f.Workloads = append(f.Workloads, wl.Name)
		f.Speedup = append(f.Speedup, s)
	}
	return f, nil
}

func (f *Fig1) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 1: speedup of requester-win best-effort HTM vs CGL, 2 threads")
	for i, wl := range f.Workloads {
		fmt.Fprintf(w, "  %-10s %6.2fx\n", wl, f.Speedup[i])
	}
	fmt.Fprintf(w, "  %-10s %6.2fx (geomean)\n", "average", geomean(f.Speedup))
}

// --- Fig. 7 ------------------------------------------------------------

// Fig7 is the headline result: per-workload speedup over CGL for every
// Table II system at five thread counts, typical cache.
type Fig7 struct {
	Systems   []string
	Workloads []string
	Threads   []int
	// Speedup[sys][wl][ti]
	Speedup map[string]map[string][]float64
}

// Fig7Systems are the systems plotted in Fig. 7 (every HTM row of
// Table II except the LosaTM comparison, which Fig. 12 covers).
func Fig7Systems() []SystemDef {
	var out []SystemDef
	for _, s := range Systems() {
		if s.Name == "CGL" || s.Name == "LosaTM-SAFU" {
			continue
		}
		out = append(out, s)
	}
	return out
}

// RunFig7 regenerates Fig. 7. workloads/systems/threads may be narrowed
// (nil means the full paper sweep).
func RunFig7(r *Runner, systems []SystemDef, workloads []stamp.Profile, threads []int) (*Fig7, error) {
	if systems == nil {
		systems = Fig7Systems()
	}
	if workloads == nil {
		workloads = stamp.Workloads()
	}
	if threads == nil {
		threads = ThreadCounts
	}
	f := &Fig7{Threads: threads, Speedup: make(map[string]map[string][]float64)}
	var specs []Spec
	for _, wl := range workloads {
		for _, t := range threads {
			specs = append(specs, Spec{System: mustSystem("CGL"), Workload: wl, Threads: t, Cache: TypicalCache()})
			for _, s := range systems {
				specs = append(specs, Spec{System: s, Workload: wl, Threads: t, Cache: TypicalCache()})
			}
		}
	}
	if err := r.RunAll(specs); err != nil {
		return nil, err
	}
	for _, s := range systems {
		f.Systems = append(f.Systems, s.Name)
		f.Speedup[s.Name] = make(map[string][]float64)
	}
	for _, wl := range workloads {
		f.Workloads = append(f.Workloads, wl.Name)
		for _, s := range systems {
			for _, t := range threads {
				sp, err := r.Speedup(s, wl, t, TypicalCache())
				if err != nil {
					return nil, err
				}
				f.Speedup[s.Name][wl.Name] = append(f.Speedup[s.Name][wl.Name], sp)
			}
		}
	}
	return f, nil
}

func (f *Fig7) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 7: speedup vs CGL per workload/system/threads (typical cache)")
	fmt.Fprintf(w, "  %-10s %-18s", "workload", "system")
	for _, t := range f.Threads {
		fmt.Fprintf(w, " %5dT", t)
	}
	fmt.Fprintln(w)
	for _, wl := range f.Workloads {
		for _, s := range f.Systems {
			fmt.Fprintf(w, "  %-10s %-18s", wl, s)
			for _, sp := range f.Speedup[s][wl] {
				fmt.Fprintf(w, " %5.2fx", sp)
			}
			fmt.Fprintln(w)
		}
	}
}

// MinSpeedup returns the worst speedup of a system across workloads at a
// thread count — the "performance lower bound" LockillerTM raises.
func (f *Fig7) MinSpeedup(system string, ti int) (string, float64) {
	worst, at := math.Inf(1), ""
	for _, wl := range f.Workloads {
		if sp := f.Speedup[system][wl][ti]; sp < worst {
			worst, at = sp, wl
		}
	}
	return at, worst
}

// --- Fig. 8 ------------------------------------------------------------

// Fig8 is the average transaction commit rate of the recovery-mechanism
// systems at five thread counts.
type Fig8 struct {
	Systems []string
	Threads []int
	// Rate[sys][ti] = mean commit rate over all workloads.
	Rate map[string][]float64
}

// RunFig8 regenerates Fig. 8.
func RunFig8(r *Runner, workloads []stamp.Profile, threads []int) (*Fig8, error) {
	if workloads == nil {
		workloads = stamp.Workloads()
	}
	if threads == nil {
		threads = ThreadCounts
	}
	names := []string{"Baseline", "LockillerTM-RAI", "LockillerTM-RRI", "LockillerTM-RWI"}
	f := &Fig8{Systems: names, Threads: threads, Rate: make(map[string][]float64)}
	var specs []Spec
	for _, n := range names {
		for _, wl := range workloads {
			for _, t := range threads {
				specs = append(specs, Spec{System: mustSystem(n), Workload: wl, Threads: t, Cache: TypicalCache()})
			}
		}
	}
	if err := r.RunAll(specs); err != nil {
		return nil, err
	}
	for _, n := range names {
		for _, t := range threads {
			var rates []float64
			for _, wl := range workloads {
				run, err := r.Get(Spec{System: mustSystem(n), Workload: wl, Threads: t, Cache: TypicalCache()})
				if err != nil {
					return nil, err
				}
				rates = append(rates, run.CommitRate())
			}
			f.Rate[n] = append(f.Rate[n], mean(rates))
		}
	}
	return f, nil
}

func (f *Fig8) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 8: average transaction commit rate (recovery systems)")
	fmt.Fprintf(w, "  %-18s", "system")
	for _, t := range f.Threads {
		fmt.Fprintf(w, " %5dT", t)
	}
	fmt.Fprintln(w, "   rel. to Baseline")
	base := f.Rate["Baseline"]
	for _, s := range f.Systems {
		fmt.Fprintf(w, "  %-18s", s)
		for _, rt := range f.Rate[s] {
			fmt.Fprintf(w, " %5.3f ", rt)
		}
		fmt.Fprintf(w, "  %.2fx\n", mean(f.Rate[s])/mean(base))
	}
}

// --- Figs. 9 and 11 ----------------------------------------------------

// BreakdownFig is the execution-time breakdown + commit rate of selected
// systems per workload at a fixed thread count (Fig. 9 at 32 threads,
// Fig. 11 at 2 threads with the switchLock category populated).
type BreakdownFig struct {
	Title     string
	Systems   []string
	Workloads []string
	Threads   int
	// Share[sys][wl][cat] and Commit[sys][wl].
	Share  map[string]map[string][stats.NumCategories]float64
	Commit map[string]map[string]float64
}

// RunBreakdown regenerates Fig. 9 (threads=32, systems Baseline/RWI/RWIL)
// or Fig. 11 (threads=2, systems Baseline/RWIL/LockillerTM).
func RunBreakdown(r *Runner, title string, systems []string, workloads []stamp.Profile, threads int) (*BreakdownFig, error) {
	if workloads == nil {
		workloads = stamp.Workloads()
	}
	f := &BreakdownFig{
		Title: title, Systems: systems, Threads: threads,
		Share:  make(map[string]map[string][stats.NumCategories]float64),
		Commit: make(map[string]map[string]float64),
	}
	var specs []Spec
	for _, n := range systems {
		for _, wl := range workloads {
			specs = append(specs, Spec{System: mustSystem(n), Workload: wl, Threads: threads, Cache: TypicalCache()})
		}
	}
	if err := r.RunAll(specs); err != nil {
		return nil, err
	}
	for _, n := range systems {
		f.Share[n] = make(map[string][stats.NumCategories]float64)
		f.Commit[n] = make(map[string]float64)
		for _, wl := range workloads {
			run, err := r.Get(Spec{System: mustSystem(n), Workload: wl, Threads: threads, Cache: TypicalCache()})
			if err != nil {
				return nil, err
			}
			f.Share[n][wl.Name] = run.Breakdown()
			f.Commit[n][wl.Name] = run.CommitRate()
		}
	}
	for _, wl := range workloads {
		f.Workloads = append(f.Workloads, wl.Name)
	}
	return f, nil
}

func (f *BreakdownFig) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: execution-time breakdown and commit rate, %d threads\n", f.Title, f.Threads)
	fmt.Fprintf(w, "  %-10s %-18s", "workload", "system")
	for _, c := range breakdownOrder {
		fmt.Fprintf(w, " %10s", c)
	}
	fmt.Fprintln(w, "   commit")
	for _, wl := range f.Workloads {
		for _, s := range f.Systems {
			fmt.Fprintf(w, "  %-10s %-18s", wl, s)
			share := f.Share[s][wl]
			for _, c := range breakdownOrder {
				fmt.Fprintf(w, " %9.1f%%", 100*share[c])
			}
			fmt.Fprintf(w, "   %.3f\n", f.Commit[s][wl])
		}
	}
}

// --- Fig. 10 -----------------------------------------------------------

// Fig10 is the abort-cause distribution at 2 threads.
type Fig10 struct {
	Systems   []string
	Workloads []string
	// Share[sys][wl][cause] — fraction of that run's aborts by cause;
	// AbortsPerAttempt[sys][wl] scales them by abort pressure.
	Share            map[string]map[string]map[htm.AbortCause]float64
	AbortsPerAttempt map[string]map[string]float64
}

// RunFig10 regenerates Fig. 10 (Baseline, RWIL, LockillerTM at 2 threads).
func RunFig10(r *Runner, workloads []stamp.Profile) (*Fig10, error) {
	if workloads == nil {
		workloads = stamp.Workloads()
	}
	systems := []string{"Baseline", "LockillerTM-RWIL", "LockillerTM"}
	f := &Fig10{
		Systems:          systems,
		Share:            make(map[string]map[string]map[htm.AbortCause]float64),
		AbortsPerAttempt: make(map[string]map[string]float64),
	}
	var specs []Spec
	for _, n := range systems {
		for _, wl := range workloads {
			specs = append(specs, Spec{System: mustSystem(n), Workload: wl, Threads: 2, Cache: TypicalCache()})
		}
	}
	if err := r.RunAll(specs); err != nil {
		return nil, err
	}
	for _, n := range systems {
		f.Share[n] = make(map[string]map[htm.AbortCause]float64)
		f.AbortsPerAttempt[n] = make(map[string]float64)
		for _, wl := range workloads {
			run, err := r.Get(Spec{System: mustSystem(n), Workload: wl, Threads: 2, Cache: TypicalCache()})
			if err != nil {
				return nil, err
			}
			f.Share[n][wl.Name] = run.AbortShare()
			total, _ := run.TotalAborts()
			var attempts uint64
			for _, c := range run.Cores {
				attempts += c.Attempts
			}
			if attempts > 0 {
				f.AbortsPerAttempt[n][wl.Name] = float64(total) / float64(attempts)
			}
		}
	}
	for _, wl := range workloads {
		f.Workloads = append(f.Workloads, wl.Name)
	}
	return f, nil
}

func (f *Fig10) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 10: abort causes at 2 threads (share of aborts; abort/attempt rate)")
	fmt.Fprintf(w, "  %-10s %-18s", "workload", "system")
	for _, c := range abortCauses {
		fmt.Fprintf(w, " %9s", c)
	}
	fmt.Fprintln(w, "   ab/att")
	for _, wl := range f.Workloads {
		for _, s := range f.Systems {
			fmt.Fprintf(w, "  %-10s %-18s", wl, s)
			for _, c := range abortCauses {
				fmt.Fprintf(w, " %8.1f%%", 100*f.Share[s][wl][c])
			}
			fmt.Fprintf(w, "   %.3f\n", f.AbortsPerAttempt[s][wl])
		}
	}
}

// --- Fig. 12 -----------------------------------------------------------

// Fig12 is the average speedup of each evaluated system (including
// LosaTM-SAFU) over CGL at five thread counts.
type Fig12 struct {
	Systems []string
	Threads []int
	// Avg[sys][ti] = mean speedup over workloads.
	Avg map[string][]float64
}

// RunFig12 regenerates Fig. 12.
func RunFig12(r *Runner, workloads []stamp.Profile, threads []int) (*Fig12, error) {
	if workloads == nil {
		workloads = stamp.Workloads()
	}
	if threads == nil {
		threads = ThreadCounts
	}
	var systems []SystemDef
	for _, s := range Systems() {
		if s.Name != "CGL" {
			systems = append(systems, s)
		}
	}
	f := &Fig12{Threads: threads, Avg: make(map[string][]float64)}
	var specs []Spec
	for _, wl := range workloads {
		for _, t := range threads {
			specs = append(specs, Spec{System: mustSystem("CGL"), Workload: wl, Threads: t, Cache: TypicalCache()})
			for _, s := range systems {
				specs = append(specs, Spec{System: s, Workload: wl, Threads: t, Cache: TypicalCache()})
			}
		}
	}
	if err := r.RunAll(specs); err != nil {
		return nil, err
	}
	for _, s := range systems {
		f.Systems = append(f.Systems, s.Name)
		for _, t := range threads {
			var sps []float64
			for _, wl := range workloads {
				sp, err := r.Speedup(s, wl, t, TypicalCache())
				if err != nil {
					return nil, err
				}
				sps = append(sps, sp)
			}
			f.Avg[s.Name] = append(f.Avg[s.Name], mean(sps))
		}
	}
	return f, nil
}

// Headline returns the paper's two headline ratios: LockillerTM's average
// speedup over the requester-win baseline and over LosaTM-SAFU (the paper
// reports 1.86x and 1.57x at the typical cache size).
func (f *Fig12) Headline() (overBaseline, overLosa float64) {
	lk := mean(f.Avg["LockillerTM"])
	return lk / mean(f.Avg["Baseline"]), lk / mean(f.Avg["LosaTM-SAFU"])
}

func (f *Fig12) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 12: average speedup vs CGL per system")
	fmt.Fprintf(w, "  %-18s", "system")
	for _, t := range f.Threads {
		fmt.Fprintf(w, " %5dT", t)
	}
	fmt.Fprintln(w, "    mean")
	for _, s := range f.Systems {
		fmt.Fprintf(w, "  %-18s", s)
		for _, sp := range f.Avg[s] {
			fmt.Fprintf(w, " %5.2fx", sp)
		}
		fmt.Fprintf(w, "  %5.2fx\n", mean(f.Avg[s]))
	}
	ob, ol := f.Headline()
	fmt.Fprintf(w, "  LockillerTM over Baseline: %.2fx (paper: 1.86x)\n", ob)
	fmt.Fprintf(w, "  LockillerTM over LosaTM-SAFU: %.2fx (paper: 1.57x)\n", ol)
}

// --- Fig. 13 -----------------------------------------------------------

// Fig13 is the cache-size sensitivity analysis: average speedup of
// Baseline and LockillerTM over CGL in the small (8KB/1MB) and large
// (128KB/32MB) cache configurations.
type Fig13 struct {
	Caches  []string
	Systems []string
	Threads []int
	// Avg[cache][sys][ti]
	Avg map[string]map[string][]float64
	// MaxOverBaseline[cache] is the largest per-workload LockillerTM /
	// Baseline cycle ratio observed (paper: up to 7.79x in the small
	// config at 32 threads).
	MaxOverBaseline map[string]float64
}

// RunFig13 regenerates Fig. 13.
func RunFig13(r *Runner, workloads []stamp.Profile, threads []int) (*Fig13, error) {
	if workloads == nil {
		workloads = stamp.Workloads()
	}
	if threads == nil {
		threads = ThreadCounts
	}
	systems := []string{"Baseline", "LosaTM-SAFU", "LockillerTM"}
	caches := []CacheConfig{SmallCache(), LargeCache()}
	f := &Fig13{
		Systems: systems, Threads: threads,
		Avg:             make(map[string]map[string][]float64),
		MaxOverBaseline: make(map[string]float64),
	}
	var specs []Spec
	for _, cc := range caches {
		for _, wl := range workloads {
			for _, t := range threads {
				specs = append(specs, Spec{System: mustSystem("CGL"), Workload: wl, Threads: t, Cache: cc})
				for _, n := range systems {
					specs = append(specs, Spec{System: mustSystem(n), Workload: wl, Threads: t, Cache: cc})
				}
			}
		}
	}
	if err := r.RunAll(specs); err != nil {
		return nil, err
	}
	for _, cc := range caches {
		f.Caches = append(f.Caches, cc.Name)
		f.Avg[cc.Name] = make(map[string][]float64)
		for _, n := range systems {
			for _, t := range threads {
				var sps []float64
				for _, wl := range workloads {
					sp, err := r.Speedup(mustSystem(n), wl, t, cc)
					if err != nil {
						return nil, err
					}
					sps = append(sps, sp)
					if n == "LockillerTM" {
						bsp, err := r.Speedup(mustSystem("Baseline"), wl, t, cc)
						if err != nil {
							return nil, err
						}
						if ratio := sp / bsp; ratio > f.MaxOverBaseline[cc.Name] {
							f.MaxOverBaseline[cc.Name] = ratio
						}
					}
				}
				f.Avg[cc.Name][n] = append(f.Avg[cc.Name][n], mean(sps))
			}
		}
	}
	return f, nil
}

func (f *Fig13) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 13: average speedup vs CGL, small (8KB/1MB) and large (128KB/32MB) caches")
	for _, cc := range f.Caches {
		fmt.Fprintf(w, "  [%s]\n", cc)
		fmt.Fprintf(w, "    %-14s", "system")
		for _, t := range f.Threads {
			fmt.Fprintf(w, " %5dT", t)
		}
		fmt.Fprintln(w)
		for _, s := range f.Systems {
			fmt.Fprintf(w, "    %-14s", s)
			for _, sp := range f.Avg[cc][s] {
				fmt.Fprintf(w, " %5.2fx", sp)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "    max LockillerTM/Baseline ratio: %.2fx\n", f.MaxOverBaseline[cc])
	}
}

// --- Scaling sweep (DESIGN.md §13) -------------------------------------

// ScalingCores are the machine sizes of the scaling sweep.
var ScalingCores = []int{32, 64, 128, 256}

// ScalingSpec returns the spec for one scaling point: one thread per
// core, a near-square grid, and the two-level directory (clusters of 16)
// above 64 cores, where flat-directory fanout starts to serialize the
// home banks.
func ScalingSpec(sys SystemDef, wl stamp.Profile, cores int) Spec {
	s := Spec{System: sys, Workload: wl, Threads: cores, Cache: TypicalCache(), Cores: cores}
	if cores > 64 {
		s.ClusterSize = 16
	}
	return s
}

// FigScaling is the scaling sweep: speedup over same-size CGL for every
// Fig. 7 system at {32, 64, 128, 256} cores on one workload.
type FigScaling struct {
	Workload string
	Systems  []string
	Cores    []int
	// Speedup[sys][ci] = CGL cycles / system cycles at Cores[ci].
	Speedup map[string][]float64
}

// RunFigScaling regenerates the scaling sweep. A nil cores slice means
// ScalingCores.
func RunFigScaling(r *Runner, wl stamp.Profile, cores []int) (*FigScaling, error) {
	if cores == nil {
		cores = ScalingCores
	}
	systems := Fig7Systems()
	f := &FigScaling{Workload: wl.Name, Cores: cores, Speedup: map[string][]float64{}}
	var specs []Spec
	for _, n := range cores {
		specs = append(specs, ScalingSpec(mustSystem("CGL"), wl, n))
		for _, s := range systems {
			specs = append(specs, ScalingSpec(s, wl, n))
		}
	}
	if err := r.RunAll(specs); err != nil {
		return nil, err
	}
	for _, s := range systems {
		f.Systems = append(f.Systems, s.Name)
		for _, n := range cores {
			cgl, err := r.Get(ScalingSpec(mustSystem("CGL"), wl, n))
			if err != nil {
				return nil, err
			}
			run, err := r.Get(ScalingSpec(s, wl, n))
			if err != nil {
				return nil, err
			}
			if run.ExecCycles == 0 {
				return nil, fmt.Errorf("harness: zero exec cycles for %s at %d cores", s.Name, n)
			}
			f.Speedup[s.Name] = append(f.Speedup[s.Name], float64(cgl.ExecCycles)/float64(run.ExecCycles))
		}
	}
	return f, nil
}

func (f *FigScaling) Render(w io.Writer) {
	fmt.Fprintf(w, "Scaling: speedup vs same-size CGL, %s, threads = cores (two-level directory above 64)\n", f.Workload)
	fmt.Fprintf(w, "  %-16s", "system")
	for _, n := range f.Cores {
		fmt.Fprintf(w, " %6dC", n)
	}
	fmt.Fprintln(w)
	for _, s := range f.Systems {
		fmt.Fprintf(w, "  %-16s", s)
		for _, sp := range f.Speedup[s] {
			fmt.Fprintf(w, " %6.2fx", sp)
		}
		fmt.Fprintln(w)
	}
}

// --- Tables ------------------------------------------------------------

// RenderTable1 prints the modeled system parameters (Table I), derived
// from the machine configuration rather than restated, so scaling
// overrides can never desynchronize the table from the simulated machine.
func RenderTable1(w io.Writer) {
	RenderTable1Params(w, coherence.DefaultParams())
}

// RenderTable1Params renders the Table I rows for an arbitrary machine
// shape (scaling runs pass Spec.MachineParams()).
func RenderTable1Params(w io.Writer, p coherence.Params) {
	fmt.Fprintln(w, "Table I: system model parameters")
	topo := "mesh"
	if p.Topo != "" {
		topo = p.Topo
	}
	gw, gh, conc, _ := topology.Grid(p.Topo, p.Cores) // p is a valid machine shape
	topoRow := fmt.Sprintf("2-D %s (%dx%d), X-Y", topo, gw, gh)
	if topo == "cmesh" {
		topoRow = fmt.Sprintf("2-D cmesh (%dx%d routers, %d tiles each), X-Y", gw, gh, conc)
	}
	coherenceRow := "MESI, directory-based (blocking, dir-mediated)"
	if p.ClusterSize > 0 {
		coherenceRow = fmt.Sprintf("MESI, two-level directory (clusters of %d)", p.ClusterSize)
	}
	rows := [][2]string{
		{"Number of Cores", fmt.Sprintf("%d", p.Cores)},
		{"Core Detail", "In-order, single-issue, 1 IPC"},
		{"Cache Line Size", "64 bytes"},
		{"L1 I&D caches", fmt.Sprintf("Private, %dKB, %d-way, %d-cycle hit latency",
			p.L1Size/1024, p.L1Ways, p.L1Hit)},
		{"L2 cache", fmt.Sprintf("Shared, %dMB, %d-way, %d-cycle hit latency",
			p.LLCSize>>20, p.LLCWays, p.LLCHit)},
		{"Memory", fmt.Sprintf("%d-cycle latency", p.MemLatency)},
		{"Coherence protocol", coherenceRow},
		{"Topology and Routing", topoRow},
		{"Flit/message size", "16 bytes / 5 flits (data), 1 flit (control)"},
		{"Link latency/bandwidth", "1 cycle / 1 flit per cycle"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %s\n", r[0], r[1])
	}
}

// RenderTable2 prints the evaluated-systems matrix (Table II).
func RenderTable2(w io.Writer) {
	fmt.Fprintln(w, "Table II: evaluated systems")
	for _, s := range Systems() {
		fmt.Fprintf(w, "  %-18s %s\n", s.Name, s.Desc)
	}
}
