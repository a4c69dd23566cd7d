package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Params are the machine parameters of Table I. Sizes are per-structure
// totals in bytes; the LLC is split evenly across one bank per tile.
type Params struct {
	Cores int
	// Topo selects the interconnect shape: "" or "mesh" (Table I), "torus"
	// (wraparound X-Y), or "cmesh" (topology.CMeshConc tiles per router).
	// The router grid is derived from Cores (topology.Grid).
	Topo string
	// ClusterSize, when >0 and < Cores, enables the two-level directory:
	// invalidation fanout for a line is delegated to one collector bank per
	// cluster of ClusterSize consecutive tiles (see cluster.go). Must
	// divide Cores. 0 keeps the paper's flat directory.
	ClusterSize    int
	L1Size, L1Ways int
	LLCSize        int
	LLCWays        int
	// MidSize/MidWays, when non-zero, add a private middle cache per tile
	// and switch the node to the MESI-Three-Level-HTM organization the
	// paper replaced (see midcache.go).
	MidSize, MidWays int
	L1Hit            uint64 // L1 hit latency (cycles)
	MidHit           uint64 // middle-cache access latency (three-level only)
	LLCHit           uint64 // LLC data access latency
	DirLatency       uint64 // directory decision latency for control replies
	MemLatency       uint64 // main memory access latency
	NoC              noc.Config
}

// DefaultParams mirrors Table I: 32 in-order cores on a 4x8 mesh, 32KB
// 4-way L1s, 8MB 16-way shared LLC, 100-cycle memory.
func DefaultParams() Params {
	return Params{
		Cores:  32,
		L1Size: 32 * 1024, L1Ways: 4,
		LLCSize: 8 * 1024 * 1024, LLCWays: 16,
		L1Hit: 2, MidHit: 6, LLCHit: 12, DirLatency: 2, MemLatency: 100,
		NoC: noc.DefaultConfig(),
	}
}

// MaxCores is the scaling ceiling (DESIGN.md §13). The sharer sets,
// topologies, and two-level directory are all sized for it.
const MaxCores = 1024

// Validate reports inconsistent parameters.
func (p Params) Validate() error {
	if p.Cores <= 0 || p.Cores > MaxCores {
		return fmt.Errorf("coherence: unsupported core count %d (want 1..%d)", p.Cores, MaxCores)
	}
	if _, _, _, err := topology.Grid(p.Topo, p.Cores); err != nil {
		return err
	}
	if p.LLCSize%p.Cores != 0 {
		return fmt.Errorf("coherence: a %d-byte LLC does not split evenly across %d banks", p.LLCSize, p.Cores)
	}
	if p.ClusterSize > 0 {
		if p.Cores%p.ClusterSize != 0 {
			return fmt.Errorf("coherence: cluster size %d does not divide %d cores",
				p.ClusterSize, p.Cores)
		}
		if p.ClusterSize > 64 {
			return fmt.Errorf("coherence: cluster size %d exceeds the 64-core Mask width",
				p.ClusterSize)
		}
	}
	return nil
}

// System is the assembled memory subsystem: one L1 and one LLC bank per
// tile, connected by the mesh, plus the HTMLock arbiter when enabled.
type System struct {
	Params
	HTM     htm.Config
	Engine  *sim.Engine
	Net     *noc.Network
	L1s     []*L1
	Banks   []*Bank
	Arbiter *htm.Arbiter
	// Obs, when non-nil, receives the model's events (internal/trace). The
	// machine layer sets it, and the CPU cores report through it too. Every
	// call site nil-checks it (the tracehook analyzer).
	Obs trace.Observer
	// ArbiterTile hosts the centralized HTMLock arbiter.
	ArbiterTile int
	// LockLine is the fallback lock's cache line, used to classify
	// subscription aborts as mutex-caused.
	LockLine mem.Line

	// msgFree is the protocol-message free list. The engine is single-
	// threaded, so no locking: a message is allocated when sent, handed
	// through the NoC as a typed event payload, and recycled by its final
	// consumer (see the ownership rules on alloc).
	msgFree []*Msg

	// fired holds the per-transition fired counters of every protocol table
	// (indexed by the tbl* constants in tables.go); TransitionProfile turns
	// them into the heat profile lockillersim -transitions dumps.
	fired [tblCount][]uint64
}

// NewSystem builds the memory subsystem for the given machine and HTM
// configuration.
func NewSystem(engine *sim.Engine, p Params, hc htm.Config) *System {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	topo, _ := topology.New(p.Topo, p.Cores) // Validate checked the shape
	hc = hc.Defaults()
	hc.Validate()
	sys := &System{
		Params:   p,
		HTM:      hc,
		Engine:   engine,
		Net:      noc.New(engine, topo, p.NoC),
		LockLine: mem.Line(0),
		fired:    newFiredCounters(),
	}
	if hc.HTMLock {
		sys.Arbiter = htm.NewArbiter(hc.SignatureBits)
		sys.Arbiter.SendWake = func(core int) {
			sys.send(Msg{Type: MsgWakeUp, Src: sys.ArbiterTile, Dst: core})
		}
		sys.Arbiter.SendGrant = func(core int) {
			sys.sendAfter(sys.DirLatency, Msg{Type: MsgHLGrant, Src: sys.ArbiterTile, Dst: core, Requester: core})
		}
	}
	bankSize := p.LLCSize / p.Cores
	// One bump arena backs every cache array of the machine — bank slices,
	// L1s, and (three-level) middle caches — so constructing a machine costs
	// one large line allocation instead of two or three per tile.
	arena := cache.NewArena(p.Cores * (cache.LinesFor(bankSize) +
		cache.LinesFor(p.L1Size) + cache.LinesFor(p.MidSize)))
	for i := 0; i < p.Cores; i++ {
		sys.Banks = append(sys.Banks, newBank(sys, i, bankSize, p.LLCWays, arena))
	}
	for i := 0; i < p.Cores; i++ {
		sys.L1s = append(sys.L1s, newL1(sys, i, arena))
	}
	return sys
}

// Reset returns the memory subsystem to its just-constructed state in
// place: every cache array, directory, MSHR table, arbiter, NoC link, and
// stat restarts as if NewSystem had just run, while warm capacity — array
// backings, table slots, and the free lists (protocol messages, MSHRs,
// pending trackers, dirLine slabs) — survives to be reused by the next run.
// The caller must guarantee no run is in progress: no live protocol
// messages, no busy directory lines, and no pending events. The engine is
// reset separately by the machine layer, whose Reset also detaches the
// observer; cpu.Machine.Observe attaches the next run's.
func (s *System) Reset() {
	s.Net.Reset()
	if s.Arbiter != nil {
		s.Arbiter.Reset()
	}
	for _, b := range s.Banks {
		b.reset()
	}
	for _, l1 := range s.L1s {
		l1.reset()
	}
	for i := range s.fired {
		c := s.fired[i]
		for j := range c {
			c[j] = 0
		}
	}
}

// HomeBank returns the bank id a line maps to under line interleaving.
func (s *System) HomeBank(l mem.Line) int { return l.Bank(s.Cores) }

// Typed-event kinds handled by System.OnEvent.
const (
	evDeliver uint8 = iota // p = *Msg: the NoC delivered it; hand to the consumer
	evSend                 // p = *Msg: a delayed send matured; route it now
)

// ProbeClass implements sim.ProbeClasser for self-profiler reports.
func (s *System) ProbeClass() string { return "noc" }

// OnEvent implements sim.Handler for NoC deliveries and delayed sends.
func (s *System) OnEvent(kind uint8, _ uint64, p any) {
	switch kind {
	case evDeliver:
		m := p.(*Msg)
		if m.toBank() {
			s.Banks[m.Dst].Receive(m)
		} else {
			s.L1s[m.Dst].Receive(m)
		}
	case evSend:
		s.route(p.(*Msg))
	}
}

// alloc returns a recycled (or fresh) message. Ownership rules: whoever is
// handed a *Msg owns it and must either store it (directory queue, MSHR
// park list, pending-request slot — ownership moves to the store) or free
// it when done. Deferred work must never read a message after its owner
// freed it; delayed responses are therefore constructed eagerly and
// scheduled as evSend payloads.
func (s *System) alloc() *Msg {
	if n := len(s.msgFree); n > 0 {
		m := s.msgFree[n-1]
		s.msgFree = s.msgFree[:n-1]
		return m
	}
	return new(Msg)
}

// free recycles a consumed message. Double frees corrupt simulations
// silently, so they are checked and fatal.
func (s *System) free(m *Msg) {
	if m.recycled {
		panic(fmt.Sprintf("coherence: double free of %v for line %d", m.Type, m.Line))
	}
	m.recycled = true
	s.msgFree = append(s.msgFree, m)
}

// send routes a fully-formed message value through a pooled allocation.
func (s *System) send(v Msg) {
	m := s.alloc()
	*m = v
	s.route(m)
}

// sendAfter routes v after d cycles (directory decision and LLC access
// latencies). The message is materialized now so the caller's request
// message can be recycled immediately.
func (s *System) sendAfter(d uint64, v Msg) {
	m := s.alloc()
	*m = v
	s.Engine.AfterEvent(d, s, evSend, 0, m)
}

// route delivers a message over the NoC. Requests, forwards, data, and
// responses are addressed by tile; whether the L1 or the bank consumes the
// message is determined by its type.
func (s *System) route(m *Msg) {
	s.Net.SendEvent(m.Src, m.Dst, m.Type.Flits(), s, evDeliver, 0, m)
}

// toBank reports whether the message type is consumed by a directory bank.
// This is routing, not protocol: the split mirrors the bankBound/l1Bound
// partition the tables declare, and the membership test has no state axis,
// so it stays a raw switch.
func (m *Msg) toBank() bool {
	//lockiller:rawdispatch routing predicate, not a protocol decision; partition is cross-checked by TestMsgRoutingMatchesTables
	switch m.Type {
	case MsgGetS, MsgGetM, MsgPutM, MsgPutE, MsgTxWB,
		MsgOwnerData, MsgNack, MsgRejectFwd, MsgInvAck, MsgInvReject,
		MsgUnblock, MsgHLApply, MsgHLRelease, MsgSigAdd,
		MsgClInv, MsgClInvDone:
		return true
	}
	return false
}
