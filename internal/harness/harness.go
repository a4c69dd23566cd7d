// Package harness assembles and runs the paper's evaluation: the Table II
// system matrix, the Table I machine configurations (plus the small/large
// cache variants of Fig. 13), and one runner per figure. Simulations are
// independent, so the runner fans them out across OS threads.
package harness

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/priority"
	"repro/internal/stamp"
	"repro/internal/stats"
)

// ThreadCounts are the five evaluated thread counts.
var ThreadCounts = []int{2, 4, 8, 16, 32}

// SystemDef is one row of Table II.
type SystemDef struct {
	Name string
	Desc string
	Sync cpu.SyncSystem
	HTM  htm.Config
}

// Systems returns the full Table II matrix, in the paper's order. Each row
// composes its HTM from policy values: a conflict policy (requester-win,
// Lockiller recovery with one rejected-request policy, or LosaTM), an
// overflow policy (abort, or switchingMode), a priority policy, and
// HTMLock. This is the one definition of every evaluated system.
func Systems() []SystemDef {
	ins := priority.InstsBased{}
	rwi := htm.Recovery{Policy: htm.WaitWakeup}
	return []SystemDef{
		{Name: "CGL", Desc: "Coarse-grained locking with the same granularity of transactions",
			Sync: cpu.SysCGL, HTM: htm.Config{}.Defaults()},
		{Name: "Baseline", Desc: "Best-Effort HTM with requester-win",
			Sync: cpu.SysHTM, HTM: htm.Config{}.Defaults()},
		{Name: "LosaTM-SAFU", Desc: "LosaTM without False Sharing and Capacity Overflow OPT",
			Sync: cpu.SysHTM, HTM: htm.Config{Conflict: htm.Losa{}, Priority: priority.Progression{}}.Defaults()},
		{Name: "LockillerTM-RAI", Desc: "Baseline + Recovery + SelfAbort + InstsBasedPriority",
			Sync: cpu.SysHTM, HTM: htm.Config{Conflict: htm.Recovery{Policy: htm.SelfAbort}, Priority: ins}.Defaults()},
		{Name: "LockillerTM-RRI", Desc: "Baseline + Recovery + SelfRetryLater + InstsBasedPriority",
			Sync: cpu.SysHTM, HTM: htm.Config{Conflict: htm.Recovery{Policy: htm.RetryLater}, Priority: ins}.Defaults()},
		{Name: "LockillerTM-RWI", Desc: "Baseline + Recovery + WaitWakeup + InstsBasedPriority",
			Sync: cpu.SysHTM, HTM: htm.Config{Conflict: rwi, Priority: ins}.Defaults()},
		{Name: "LockillerTM-RWL", Desc: "Baseline + Recovery + WaitWakeup + HTMLock",
			Sync: cpu.SysHTM, HTM: htm.Config{Conflict: rwi, HTMLock: true}.Defaults()},
		{Name: "LockillerTM-RWIL", Desc: "LockillerTM-RWI + HTMLock",
			Sync: cpu.SysHTM, HTM: htm.Config{Conflict: rwi, Priority: ins, HTMLock: true}.Defaults()},
		{Name: "LockillerTM", Desc: "LockillerTM-RWI + HTMLock + SwitchingMode",
			Sync: cpu.SysHTM, HTM: htm.Config{
				Conflict: rwi, Overflow: htm.SwitchOverflow{}, Priority: ins, HTMLock: true,
			}.Defaults()},
	}
}

// SystemByName returns a Table II row.
func SystemByName(name string) (SystemDef, error) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
	}
	return SystemDef{}, fmt.Errorf("harness: unknown system %q", name)
}

// CacheConfig names one of the three evaluated cache configurations.
type CacheConfig struct {
	Name    string
	L1Size  int
	LLCSize int
}

// The three configurations of §IV: typical (Table I), and the small/large
// sensitivity points of Fig. 13.
func TypicalCache() CacheConfig { return CacheConfig{"typical", 32 * 1024, 8 << 20} }
func SmallCache() CacheConfig   { return CacheConfig{"small", 8 * 1024, 1 << 20} }
func LargeCache() CacheConfig   { return CacheConfig{"large", 128 * 1024, 32 << 20} }

// Spec identifies one simulation.
type Spec struct {
	System   SystemDef
	Workload stamp.Profile
	Threads  int
	Cache    CacheConfig
	Seed     uint64
	// Cores, Topo, and ClusterSize override the Table I machine shape (32
	// cores, 4x8 mesh, flat directory) for scaling runs (DESIGN.md §13).
	// Zero values keep the defaults — and the memo keys they produced
	// before these fields existed. Cores derives a near-square grid
	// (topology.Grid). Topo picks mesh, torus, or cmesh
	// (topology.CMeshConc tiles per router); ClusterSize enables the
	// two-level directory.
	Cores       int
	Topo        string
	ClusterSize int
}

func (s Spec) key() string {
	return fmt.Sprintf("%s|%s|%d|%s|%d", s.System.Name, s.Workload.Name, s.Threads, s.Cache.Name, s.Seed) +
		s.keySuffix()
}

// keySuffix renders the optional key-affecting dimensions, in a fixed
// order, for both key and poolKey. Unset fields add nothing, so specs that
// leave them zero keep the keys they had before the fields existed.
func (s Spec) keySuffix() string {
	k := ""
	if s.Cores > 0 {
		k += fmt.Sprintf("|cores%d", s.Cores)
	}
	if s.Topo != "" {
		k += "|topo" + s.Topo
	}
	if s.ClusterSize > 0 {
		k += fmt.Sprintf("|cl%d", s.ClusterSize)
	}
	return k
}

// Key returns the spec's memo key — the identity used by the runner's
// memo, the disk cache, and the obs run ledger.
func (s Spec) Key() string { return s.key() }

// poolKey identifies the machine *shape* a spec needs: every key-affecting
// dimension except the workload and seed, which Machine.Reset reprograms.
// Two specs with the same poolKey can share one constructed machine across
// resets.
func (s Spec) poolKey() string {
	return fmt.Sprintf("%s|%d|%s", s.System.Name, s.Threads, s.Cache.Name) + s.keySuffix()
}

// Validate reports a spec whose machine cannot be built: a thread count
// outside 1..cores, or an inconsistent machine shape (coherence.Params).
func (s Spec) Validate() error {
	p := s.MachineParams()
	if s.Threads < 1 || s.Threads > p.Cores {
		return fmt.Errorf("harness: %d threads on %d cores (want 1..%d)", s.Threads, p.Cores, p.Cores)
	}
	return p.Validate()
}

// MachineParams resolves the spec's machine shape: Table I defaults plus
// the cache configuration and any scaling overrides.
func (s Spec) MachineParams() coherence.Params {
	p := coherence.DefaultParams()
	p.L1Size = s.Cache.L1Size
	p.LLCSize = s.Cache.LLCSize
	if s.Cores > 0 {
		p.Cores = s.Cores
	}
	if s.Topo != "" {
		p.Topo = s.Topo
	}
	if s.ClusterSize > 0 {
		p.ClusterSize = s.ClusterSize
	}
	return p
}

// Execute runs one simulation to completion on a freshly built machine: the
// reference every pooled or instrumented execution is compared against.
func Execute(s Spec) (*stats.Run, error) { return ExecuteWith(s, ExecOptions{}) }

// ExecOptions are the optional observers of one execution (tracer,
// telemetry, engine probe); the zero value runs bare. They attach through
// cpu.Machine.Observe, which also labels a telemetry with the run's
// system, thread count and workload.
type ExecOptions = cpu.Observers

// ExecuteWith runs one simulation with the given observers attached.
func ExecuteWith(s Spec, opts ExecOptions) (*stats.Run, error) {
	return NewMachineFor(s, opts).Run()
}

// Config resolves the machine configuration a spec describes.
func (s Spec) Config() cpu.Config {
	return cpu.Config{
		Machine: s.MachineParams(),
		HTM:     s.System.HTM,
		Sync:    s.System.Sync,
		Threads: s.Threads,
		Seed:    s.Seed,
		Limit:   4_000_000_000,
	}
}

// NewMachineFor constructs the machine a spec describes, programmed, with
// opts attached, and ready to Run. The runner builds machines here once per
// shape and Resets them for every later spec with the same poolKey.
func NewMachineFor(s Spec, opts ExecOptions) *cpu.Machine {
	progs := stamp.Programs(s.Workload, s.Threads, s.Seed)
	m := cpu.NewMachine(s.Config(), s.System.Name, s.Workload.Name, progs)
	m.Observe(opts)
	return m
}

// Runner executes specs in parallel with memoization (CGL baselines are
// shared across figures). It pools constructed machines by shape
// (Spec.poolKey) and Resets them in place for each later spec of the same
// shape instead of rebuilding (DESIGN.md §15); reset-then-run is bit-for-bit
// identical to Execute, with or without the Profiler's probe attached.
type Runner struct {
	Seed    uint64
	Workers int
	// Log, when non-nil, receives one line per completed simulation.
	Log func(string)
	// Disk, when non-nil, is the persistent content-addressed sweep
	// cache: get() consults it after a memo miss and stores every fresh
	// successful result. Hits produce ledger records with
	// cache_src="disk".
	Disk *DiskCache

	// Ledger, when non-nil, receives one obs record per execution (and
	// per cache hit RunAll satisfies from the memo). Appends happen on
	// the singleflight leader only, so each execution is recorded once.
	Ledger *obs.Ledger
	// Progress, when non-nil, receives one event per spec RunAll
	// completes. Events are serialized and done-counts are monotone.
	Progress obs.ProgressSink
	// Profiler, when non-nil, aggregates the engine self-profile across
	// every execution: each run gets a private probe, merged here when it
	// finishes.
	Profiler *obs.Profiler

	// exec runs one spec; tests may replace it before first use. Defaults
	// to the pooled path.
	exec func(Spec) (*stats.Run, error)

	mu       sync.Mutex
	results  map[string]*stats.Run
	inflight map[string]*call
	errs     []error
	pool     machinePool
}

// call tracks one in-flight execution so concurrent Gets of the same spec
// share a single run (singleflight).
type call struct {
	done chan struct{}
	res  *stats.Run
	err  error
	wall time.Duration
}

// runAccount describes how one get was satisfied: the host wall time and
// allocator delta of the execution (zero for cache hits) and which cache
// answered ("" for fresh executions, "memo" or "disk" otherwise).
// Allocator deltas are process-global readings, so under concurrent sweep
// workers the attribution to one spec is approximate by design.
type runAccount struct {
	Wall     time.Duration
	Mem      obs.MemDelta
	CacheSrc string
}

// hit reports whether any cache satisfied the get.
func (a runAccount) hit() bool { return a.CacheSrc != "" }

// NewRunner creates a runner with DefaultWorkers(0) workers.
func NewRunner(seed uint64) *Runner {
	return &Runner{
		Seed:     seed,
		Workers:  DefaultWorkers(0),
		results:  make(map[string]*stats.Run),
		inflight: make(map[string]*call),
	}
}

// WorkersFromEnv returns the worker count requested via LOCKILLER_WORKERS,
// or 0 if the variable is unset or not a positive integer.
func WorkersFromEnv() int {
	if v := os.Getenv("LOCKILLER_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// DefaultWorkers resolves the runner worker count: an explicit positive
// flag value wins, then LOCKILLER_WORKERS, then one worker per CPU. Specs
// are the only unit of parallelism: each simulation runs on one goroutine.
func DefaultWorkers(flagVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	if n := WorkersFromEnv(); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// stamp normalizes a spec for this runner: the runner's seed always wins.
func (r *Runner) stamp(s Spec) Spec {
	s.Seed = r.Seed
	return s
}

// execute runs one valid spec. A panic anywhere in it — build, reset or
// run — becomes the spec's error, so one bad spec fails alone instead of
// taking the sweep's process down.
func (r *Runner) execute(s Spec) (res *stats.Run, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	if r.exec != nil {
		return r.exec(s)
	}
	// Satisfy the spec from the machine pool: take a machine of the right
	// shape and Reset it for this spec's workload and seed, or build one if
	// the pool has none. Machines return to the pool only after a clean run
	// — an errored or panicked machine's state is suspect, so it is dropped
	// for the garbage collector.
	pk := s.poolKey()
	m := r.pool.acquire(pk)
	if m == nil {
		m = NewMachineFor(s, ExecOptions{})
	} else {
		progs := stamp.Programs(s.Workload, s.Threads, s.Seed)
		m.Reset(s.Seed, s.System.Name, s.Workload.Name, progs)
	}
	// Each run gets a private probe (the probe path does not lock); the
	// sweep-level aggregate locks on merge. The next Reset detaches it.
	var p *obs.Profiler
	if r.Profiler != nil {
		p = obs.NewProfiler()
		m.Observe(ExecOptions{Probe: p})
	}
	res, err = m.Run()
	r.Profiler.Merge(p)
	if err == nil {
		r.pool.release(pk, m)
	}
	return res, err
}

// Get runs (or returns the memoized result of) a single spec. Concurrent
// calls for the same spec are coalesced: exactly one executes the
// simulation, the rest block and share its result.
func (r *Runner) Get(s Spec) (*stats.Run, error) {
	res, _, err := r.get(s)
	return res, err
}

// get is Get plus the host-side accounting: wall time and allocator delta
// of the execution, measured on the singleflight leader — the one code
// path every per-spec wall figure (Log line, ledger record, progress
// event) now comes from. The leader also appends the ledger record, so an
// execution is recorded exactly once no matter how many callers share it.
// A spec that fails Validate gets that error without executing; like every
// failed key, it is never memoized or disk-cached.
func (r *Runner) get(s Spec) (*stats.Run, runAccount, error) {
	s = r.stamp(s)
	k := s.key()
	r.mu.Lock()
	if res, ok := r.results[k]; ok {
		r.mu.Unlock()
		return res, runAccount{CacheSrc: "memo"}, nil
	}
	if c, ok := r.inflight[k]; ok {
		r.mu.Unlock()
		<-c.done
		return c.res, runAccount{Wall: c.wall}, c.err
	}
	c := &call{done: make(chan struct{})}
	if r.inflight == nil {
		r.inflight = make(map[string]*call)
	}
	r.inflight[k] = c
	r.mu.Unlock()

	var res *stats.Run
	var acct runAccount
	err := s.Validate()
	if err == nil && r.Disk != nil {
		if run, ok := r.Disk.Load(k, s.Seed); ok {
			res, acct = run, runAccount{CacheSrc: "disk"}
		}
	}
	if err == nil && res == nil {
		timer := obs.StartTimer()
		mem := obs.TakeMemSnapshot()
		res, err = r.execute(s)
		acct = runAccount{Wall: timer.Elapsed(), Mem: mem.Delta()}
		if err == nil && r.Disk != nil {
			// A failed store loses no result, only the cache entry, so it
			// is reported rather than returned, and on stderr whatever
			// Log is: otherwise a broken cache would go unnoticed.
			if serr := r.Disk.Store(k, s.Seed, res); serr != nil {
				fmt.Fprintf(os.Stderr, "harness: %s not cached: %v\n", k, serr)
			}
		}
	}
	if err != nil {
		err = fmt.Errorf("harness: %s: %w", k, err)
	}
	if r.Ledger != nil {
		r.Ledger.Append(LedgerRecord(s, res, err, acct.Wall, acct.Mem, acct.CacheSrc))
	}
	c.res, c.err, c.wall = res, err, acct.Wall
	r.mu.Lock()
	if err == nil {
		r.results[k] = res
	}
	delete(r.inflight, k)
	r.mu.Unlock()
	close(c.done)
	return res, acct, err
}

// LedgerRecord builds the obs ledger record for one spec outcome. Shared
// by the runner and lockillersim's single-run -ledger mode so the schema
// is populated from exactly one place. cacheSrc is "" for a fresh
// execution, "memo" or "disk" for a cache hit.
func LedgerRecord(s Spec, res *stats.Run, err error, wall time.Duration, mem obs.MemDelta, cacheSrc string) obs.Record {
	rec := obs.Record{
		CacheHit:        cacheSrc != "",
		CacheSrc:        cacheSrc,
		Key:             s.Key(),
		Seed:            s.Seed,
		WallNS:          int64(wall),
		GCCycles:        mem.GCCycles,
		HeapAllocBytes:  mem.HeapAllocBytes,
		Mallocs:         mem.Mallocs,
		TotalAllocBytes: mem.TotalAllocBytes,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if res != nil {
		rec.Events = res.EventsExecuted
		rec.ExecCycles = res.ExecCycles
	}
	return rec
}

// sweep serializes one RunAll's progress accounting: done-counts are
// monotone, sink calls never overlap, and the ETA extrapolates from the
// mean pace on the monotonic clock.
type sweep struct {
	r     *Runner
	total int
	timer obs.Timer
	mu    sync.Mutex
	done  int
}

func (r *Runner) newSweep(total int) *sweep {
	return &sweep{r: r, total: total, timer: obs.StartTimer()}
}

func (w *sweep) emit(key string, acct runAccount, err error) {
	if w.r.Progress == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done++
	elapsed := w.timer.Elapsed()
	var eta time.Duration
	if rem := w.total - w.done; rem > 0 {
		eta = elapsed / time.Duration(w.done) * time.Duration(rem)
	}
	e := obs.ProgressEvent{
		Done: w.done, Total: w.total, Key: key,
		CacheHit: acct.hit(), CacheSrc: acct.CacheSrc, Wall: acct.Wall,
		Elapsed: elapsed, ETA: eta,
	}
	if err != nil {
		e.Err = err.Error()
	}
	w.r.Progress.Event(e)
}

// RunAll executes all specs in parallel. Every failing spec contributes an
// error (wrapped with its key) to the returned errors.Join aggregate;
// successful results are retrieved afterwards via Get (memoized). Specs
// the memo already holds still count toward the sweep's progress total and
// produce cache-hit ledger records, so a resumed sweep's ledger covers the
// whole matrix.
func (r *Runner) RunAll(specs []Spec) error {
	// Deduplicate up front so workers never race to run the same spec,
	// and split cached specs out so they are accounted without executing.
	seen := make(map[string]bool)
	var todo, cached []Spec
	for _, s := range specs {
		s = r.stamp(s)
		k := s.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		r.mu.Lock()
		_, have := r.results[k]
		r.mu.Unlock()
		if have {
			cached = append(cached, s)
		} else {
			todo = append(todo, s)
		}
	}
	sort.Slice(todo, func(i, j int) bool { return todo[i].key() < todo[j].key() })
	sort.Slice(cached, func(i, j int) bool { return cached[i].key() < cached[j].key() })

	sw := r.newSweep(len(todo) + len(cached))
	for _, s := range cached {
		r.mu.Lock()
		res := r.results[s.key()]
		r.mu.Unlock()
		if r.Ledger != nil {
			r.Ledger.Append(LedgerRecord(s, res, nil, 0, obs.MemDelta{}, "memo"))
		}
		sw.emit(s.key(), runAccount{CacheSrc: "memo"}, nil)
	}

	workers := r.Workers
	if workers <= 0 {
		workers = 1
	}
	ch := make(chan Spec)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				// get provides the memoization, key-wrapped errors, the
				// singleflight coalescing with any concurrent direct
				// callers, and the one wall-time measurement per run.
				res, acct, err := r.get(s)
				if err != nil {
					r.mu.Lock()
					r.errs = append(r.errs, err)
					r.mu.Unlock()
				} else if r.Log != nil {
					r.Log(fmt.Sprintf("%s wall=%s", res, acct.Wall.Round(time.Millisecond)))
				}
				sw.emit(s.key(), acct, err)
			}
		}()
	}
	for _, s := range todo {
		ch <- s
	}
	close(ch)
	wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	// Join in sorted order so the aggregate message is deterministic even
	// though workers finish in arbitrary order.
	sort.Slice(r.errs, func(i, j int) bool { return r.errs[i].Error() < r.errs[j].Error() })
	return errors.Join(r.errs...)
}

// Speedup returns CGL-cycles / system-cycles for the same workload, thread
// count, and cache configuration.
func (r *Runner) Speedup(sys SystemDef, wl stamp.Profile, threads int, cache CacheConfig) (float64, error) {
	cgl, err := r.Get(Spec{System: mustSystem("CGL"), Workload: wl, Threads: threads, Cache: cache})
	if err != nil {
		return 0, err
	}
	run, err := r.Get(Spec{System: sys, Workload: wl, Threads: threads, Cache: cache})
	if err != nil {
		return 0, err
	}
	if run.ExecCycles == 0 {
		return 0, fmt.Errorf("harness: zero exec cycles for %s/%s", sys.Name, wl.Name)
	}
	return float64(cgl.ExecCycles) / float64(run.ExecCycles), nil
}

func mustSystem(name string) SystemDef {
	s, err := SystemByName(name)
	if err != nil {
		panic(err)
	}
	return s
}
