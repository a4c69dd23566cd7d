package cpu

import (
	"fmt"
	"strings"

	"repro/internal/coherence"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Placement selects how threads are bound to mesh tiles. The paper pins
// thread i to core i (packed); spreading threads maximizes inter-thread
// NoC distance but also spreads LLC-bank locality — an ablation knob.
type Placement uint8

const (
	// PlacePacked binds thread i to core i (the paper's binding).
	PlacePacked Placement = iota
	// PlaceSpread distributes threads evenly across the mesh.
	PlaceSpread
)

// mapThreads returns the core id for each thread under the placement.
func mapThreads(p Placement, threads, cores int) []int {
	out := make([]int, threads)
	switch p {
	case PlaceSpread:
		stride := cores / threads
		if stride < 1 {
			stride = 1
		}
		for i := range out {
			out[i] = (i * stride) % cores
		}
	default:
		for i := range out {
			out[i] = i
		}
	}
	return out
}

// SyncSystem selects how atomic sections are executed.
type SyncSystem uint8

const (
	// SysCGL executes every atomic section under one global lock with the
	// same granularity as the transactions (Table II's CGL row).
	SysCGL SyncSystem = iota
	// SysHTM executes atomic sections as best-effort HTM transactions with
	// the mechanisms enabled in the htm.Config (all other Table II rows).
	SysHTM
)

// Config assembles a whole machine run.
type Config struct {
	Machine coherence.Params
	HTM     htm.Config
	Sync    SyncSystem
	Threads int
	Seed    uint64
	// Limit bounds the simulation length in cycles (0 = unlimited).
	Limit uint64
	// DisableFusion turns off the event-fusion fast path (DESIGN.md §10),
	// forcing every compute delay and L1 hit through the event queue. The
	// simulated behavior is bit-for-bit identical either way (pinned by the
	// fusion equivalence tests); the knob is the unfused reference those
	// tests compare against.
	DisableFusion bool
	// Placement binds threads to mesh tiles (default: packed, per paper).
	Placement Placement
}

const (
	// faultPenalty is the non-speculative cost of an OpFault (an exception
	// handled outside a transaction).
	faultPenalty = 300
	// spinInterval is the re-read period of the test-and-test-and-set lock
	// spin loop.
	spinInterval = 16
)

// Observers are the optional recorders of one run. None of them changes
// a simulated cycle: they only read model state. The zero value observes
// nothing.
type Observers struct {
	// Tracer records simulation events (internal/trace).
	Tracer *trace.Tracer
	// Telemetry attaches the simulated-time observability layer: sampled
	// metrics series, Chrome-trace spans, and conflict provenance
	// (internal/telemetry). One Telemetry observes one run.
	Telemetry *telemetry.Telemetry
	// Probe attaches the host-side engine self-profiler (internal/obs):
	// per-event-type dispatch wall time. Leave it nil rather than wrap a
	// nil concrete pointer — a typed nil defeats the engine's nil guards.
	Probe obs.EngineProbe
}

// Machine is an assembled simulation: memory subsystem, cores, fallback
// lock, and barrier.
type Machine struct {
	Cfg     Config
	Engine  *sim.Engine
	Sys     *coherence.System
	Cores   []*Core
	Lock    *SpinLock
	Barrier *Barrier
	Stats   *stats.Run

	// counters holds the functional values OpRMW operations increment;
	// values are staged per-attempt and applied at commit, so the final
	// counts witness end-to-end atomicity.
	counters map[mem.Line]uint64

	running int
}

// NewMachine builds a machine executing the given per-thread programs.
// len(programs) must equal cfg.Threads, and threads must not exceed the
// machine's core count (the paper binds each thread to one core, no OS
// scheduling).
func NewMachine(cfg Config, label, workload string, programs []Program) *Machine {
	if len(programs) != cfg.Threads {
		panic(fmt.Sprintf("cpu: %d programs for %d threads", len(programs), cfg.Threads))
	}
	if cfg.Threads > cfg.Machine.Cores {
		panic(fmt.Sprintf("cpu: %d threads exceed %d cores", cfg.Threads, cfg.Machine.Cores))
	}
	engine := sim.NewEngine()
	sys := coherence.NewSystem(engine, cfg.Machine, cfg.HTM)
	m := &Machine{
		Cfg:      cfg,
		Engine:   engine,
		Sys:      sys,
		Lock:     NewSpinLock(sys.LockLine),
		Barrier:  NewBarrier(engine, cfg.Threads),
		Stats:    stats.NewRun(label, workload, cfg.Threads),
		counters: make(map[mem.Line]uint64),
	}
	rng := sim.NewRNG(cfg.Seed)
	coreOf := mapThreads(cfg.Placement, cfg.Threads, cfg.Machine.Cores)
	for i := 0; i < cfg.Threads; i++ {
		c := newCore(m, coreOf[i], programs[i], m.Stats.Cores[i], rng.Split(uint64(i)))
		m.Cores = append(m.Cores, c)
	}
	return m
}

// Reset returns a constructed machine to pristine pre-run state in place
// and rebinds it to a new run: a new seed, new per-thread programs, and a
// fresh stats.Run (callers memoize the returned *stats.Run, so it must not
// be recycled). Everything shape-dependent survives — cache array backings
// (generation reset), directory and MSHR table capacity, free lists
// (messages, MSHRs, pending trackers), the NoC route table, and the engine's
// calendar-queue rings — which is what makes reset several times cheaper
// than construction. The run that used this machine must have completed
// cleanly (Run returned): no pending events, no live protocol messages, no
// busy directory lines.
//
// Reset detaches every observer: the previous run's tracer, telemetry and
// probe keep what they recorded and see nothing of the next run. Call
// Observe after Reset to watch the next run. The contract is bit-identity:
// reset-then-Run produces byte-for-byte the same stats as building a fresh
// machine with the same shape and inputs — pinned by the reuse golden tests
// and the reflection deep-state walk.
func (m *Machine) Reset(seed uint64, label, workload string, programs []Program) {
	if len(programs) != m.Cfg.Threads {
		panic(fmt.Sprintf("cpu: reset with %d programs for %d threads", len(programs), m.Cfg.Threads))
	}
	m.Cfg.Seed = seed
	m.Engine.Reset()
	m.Sys.Reset()
	m.Lock.Reset()
	m.Barrier.Reset()
	m.Stats = stats.NewRun(label, workload, m.Cfg.Threads)
	clear(m.counters)
	m.running = 0
	rng := sim.NewRNG(seed)
	coreOf := mapThreads(m.Cfg.Placement, m.Cfg.Threads, m.Cfg.Machine.Cores)
	for i, c := range m.Cores {
		if c.id != coreOf[i] {
			panic("cpu: reset changed the thread placement")
		}
		c.reset(programs[i], m.Stats.Cores[i], rng.Split(uint64(i)))
	}
	m.Observe(Observers{})
	resetForget(m)
}

// Observe attaches o to the machine's next run. Call it after NewMachine
// or Reset and before Run; Reset detaches every observer. A telemetry
// starts sampling as it attaches, so attach at most one per run. Observe is
// the one place observers are wired in: the engine gets the probe, the
// coherence layer and the NoC the tracer, and a telemetry is labeled from
// the machine, fed every closed per-core segment, given its NoC and MSHR
// series, and started on the engine's clock.
func (m *Machine) Observe(o Observers) {
	m.Engine.SetProbe(o.Probe)
	if o.Tracer != nil {
		o.Tracer.Now = m.Engine.Now
	}
	m.Sys.Tracer, m.Sys.Net.Tracer = o.Tracer, o.Tracer
	m.Sys.Telemetry = o.Telemetry
	var sink stats.SegmentSink
	if tel := o.Telemetry; tel != nil {
		sink = tel
		m.registerSeries(tel)
	}
	for _, sc := range m.Stats.Cores {
		sc.Sink = sink
	}
}

// registerSeries labels tel with this run, registers the machine's NoC and
// MSHR series before the first sample freezes the registry, and starts the
// sampler.
func (m *Machine) registerSeries(tel *telemetry.Telemetry) {
	tel.Meta = telemetry.Meta{System: m.Stats.System, Threads: m.Cfg.Threads, Workload: m.Stats.Workload}
	net := m.Sys.Net
	tel.Reg.RateSeries("noc_messages",
		func() float64 { return float64(net.Messages) })
	tel.Reg.RateSeries("noc_queue_wait",
		func() float64 { return float64(net.QueueWait) })
	// Flit-hops over link-cycles is the mean link occupancy; the topology
	// knows its own directed-link count (mesh, torus, and cmesh differ).
	links := net.Topo().NumLinks()
	tel.Reg.PerCycleSeries("noc_link_occupancy",
		func() float64 { return float64(net.FlitHops) }, float64(links))
	sys := m.Sys
	tel.Reg.GaugeSeries("mshr_occupancy", func() float64 {
		n := 0
		for _, l1 := range sys.L1s {
			n += l1.MSHRCount()
		}
		return float64(n)
	})
	tel.Start(m.Engine, m.Cfg.Machine.Cores)
}

// Run executes the machine to completion and returns the collected stats.
func (m *Machine) Run() (*stats.Run, error) {
	m.running = len(m.Cores)
	for _, c := range m.Cores {
		c := c
		m.Engine.After(0, c.start)
	}
	err := m.Engine.Run(m.Cfg.Limit)
	m.collectTraffic()
	if err != nil {
		return m.Stats, fmt.Errorf("cpu: %s/%s threads=%d: %w\n%s",
			m.Stats.Workload, m.Stats.System, m.Cfg.Threads, err, m.DumpState())
	}
	if m.running != 0 {
		return m.Stats, fmt.Errorf("cpu: %s/%s threads=%d: %d cores never finished (deadlock)\n%s",
			m.Stats.Workload, m.Stats.System, m.Cfg.Threads, m.running, m.DumpState())
	}
	return m.Stats, nil
}

// collectTraffic sums the per-tile and machine-global memory-subsystem
// counters into the run stats.
func (m *Machine) collectTraffic() {
	t := &m.Stats.Traffic
	for _, l1 := range m.Sys.L1s {
		t.L1Hits += l1.Hits
		t.L1Misses += l1.Misses
		t.TxWBs += l1.TxWBs
		t.NacksSent += l1.NacksSent
		t.RejectsSent += l1.RejectsSent
		t.RejectsReceived += l1.RejectsReceived
		t.WakesSent += l1.WakesSent
		t.SignatureSpills += l1.OverflowEvictions
		t.SwitchTries += l1.SwitchTries
		t.SwitchGrants += l1.SwitchGrants
	}
	for _, b := range m.Sys.Banks {
		t.DirRequests += b.Requests
		t.LLCRejections += b.Rejections
		t.MemFetches += b.MemFetches
		t.BackInvals += b.BackInvals
	}
	t.Messages = m.Sys.Net.Messages
	t.FlitHops = m.Sys.Net.FlitHops
	t.QueueWait = m.Sys.Net.QueueWait
	t.LockAcquisitions = m.Lock.Acquisitions
	t.LockHandovers = m.Lock.Handovers
	m.Stats.Transitions = m.Sys.TransitionProfile()
	m.Stats.EventsExecuted = m.Engine.Executed()
	for _, c := range m.Cores {
		m.Stats.FusedRuns += c.fusedRuns
	}
}

// DumpState renders a diagnostic snapshot of every core — what each thread
// was doing when the run ended. It is attached to watchdog and deadlock
// errors so protocol hangs are debuggable from the failure message alone.
func (m *Machine) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine state at cycle %d (%d/%d cores running):\n",
		m.Engine.Now(), m.running, len(m.Cores))
	for _, c := range m.Cores {
		l1 := m.Sys.L1s[c.id]
		fmt.Fprintf(&b, "  core %2d: section %d/%d mode=%v attempt=%d doomed=%v parked=%d\n",
			c.id, c.secIdx, len(c.prog), l1.Tx.Mode, l1.Tx.Attempt, l1.Tx.Doomed, l1.ParkedRequests())
	}
	fmt.Fprintf(&b, "  lock: held=%v owner=%d waiters=%d\n", m.Lock.Held(), m.Lock.Owner(), m.Lock.Waiters())
	if a := m.Sys.Arbiter; a != nil {
		fmt.Fprintf(&b, "  arbiter: holder=%d mode=%v\n", a.Holder(), a.HolderMode())
	}
	return b.String()
}

// CounterValue returns the committed value of a functional counter.
func (m *Machine) CounterValue(l mem.Line) uint64 { return m.counters[l] }

// coreDone is called by each core when its program completes.
func (m *Machine) coreDone() {
	m.running--
	if now := m.Engine.Now(); now > m.Stats.ExecCycles {
		m.Stats.ExecCycles = now
	}
	m.Engine.Progress()
}
