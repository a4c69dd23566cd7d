// Package noc models the on-chip interconnect of the tiled CMP. The shape
// is pluggable (topology.Topology): the paper's Table I machine is a 4x8
// mesh with X-Y routing, and the scaled machines (DESIGN.md §13) run the
// same model over larger meshes, tori, and concentrated meshes up to 1024
// tiles. Flits are 16 bytes over 1-cycle links at 1 flit/cycle (Table I).
//
// Rather than simulating router microarchitecture cycle by cycle, the model
// reserves each directed link along a message's path in order: a message
// occupies a link for (link latency + serialization) cycles and a later
// message over the same link queues behind it. This captures the three NoC
// effects the evaluation depends on — hop latency, serialization of multi-
// flit data messages, and hot-link contention — at a small fraction of the
// cost of a flit-level model, and preserves per-link FIFO ordering.
package noc

import (
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Flit and message sizing from Table I: 16-byte flits; a 64-byte data
// message is 5 flits (header + 4 data), control messages are 1 flit.
const (
	ControlFlits = 1
	DataFlits    = 5
)

// Config holds the NoC timing parameters.
type Config struct {
	LinkLatency  uint64 // cycles per hop (Table I: 1)
	RouterDelay  uint64 // per-hop router pipeline delay
	LocalLatency uint64 // latency for a tile talking to itself (and, on a
	// concentrated mesh, to the other tiles of its router)
	// Perfect disables contention and serialization: every message takes
	// hops*(LinkLatency+RouterDelay) cycles. Used by the NoC ablation.
	Perfect bool
}

// DefaultConfig mirrors Table I.
func DefaultConfig() Config {
	return Config{LinkLatency: 1, RouterDelay: 1, LocalLatency: 1}
}

// Network delivers messages between tiles of a topology.
type Network struct {
	engine *sim.Engine
	topo   topology.Topology
	cfg    Config

	// busyUntil[from*tiles+to] is the cycle at which the directed link
	// from→to becomes free. A flat slice rather than a map keyed by
	// topology.Link: the lookup runs once per link per message on the
	// hottest path in the simulator, and hashing a 16-byte struct key
	// dominated whole-run profiles. tiles² entries is 8 KiB for the
	// paper's 32-tile mesh and 8 MiB at the 1024-tile ceiling — still far
	// cheaper than per-message hashing; non-adjacent pairs simply stay
	// zero.
	busyUntil []uint64
	tiles     int

	// routes[src*tiles+dst] lists the flat busyUntil indices of the links
	// along the route, precomputed so the arrival loop walks a dense int32
	// slice instead of re-deriving link identities per message. Machines
	// beyond topology.RouteTableTiles skip the tiles² table and route on
	// demand into scratch instead.
	routes        [][]int32
	scratch       []topology.Link
	scratchIdxBuf []int32

	// Tracer, when non-nil, records CatNoC events: link enqueue,
	// serialization stalls, and scheduled delivery.
	Tracer *trace.Tracer

	// Stats.
	Messages  uint64
	FlitHops  uint64
	QueueWait uint64
}

// New creates a network over the given topology.
func New(engine *sim.Engine, topo topology.Topology, cfg Config) *Network {
	t := topo.Tiles()
	n := &Network{
		engine:    engine,
		topo:      topo,
		cfg:       cfg,
		busyUntil: make([]uint64, t*t),
		tiles:     t,
	}
	if t > topology.RouteTableTiles {
		return n // on-demand routing via scratch
	}
	routes := make([][]int32, t*t)
	total := 0
	for src := 0; src < t; src++ {
		for dst := 0; dst < t; dst++ {
			total += topo.Hops(src, dst)
		}
	}
	backing := make([]int32, 0, total) // one allocation backs every route
	for src := 0; src < t; src++ {
		for dst := 0; dst < t; dst++ {
			start := len(backing)
			for _, l := range topo.Route(src, dst) {
				backing = append(backing, int32(l.From*t+l.To))
			}
			routes[src*t+dst] = backing[start:len(backing):len(backing)]
		}
	}
	n.routes = routes
	return n
}

// Topo returns the underlying topology.
func (n *Network) Topo() topology.Topology { return n.topo }

// Reset returns the network to its just-constructed state in place: all
// link reservations released and stats zeroed. The precomputed route table
// and the on-demand scratch buffers are construction artifacts of the
// (immutable) topology and survive; the simulated clock restarts at zero
// after a machine reset, so stale busyUntil times must not.
func (n *Network) Reset() {
	for i := range n.busyUntil {
		n.busyUntil[i] = 0
	}
	n.scratch = n.scratch[:0]
	n.scratchIdxBuf = n.scratchIdxBuf[:0]
	n.Messages, n.FlitHops, n.QueueWait = 0, 0, 0
}

// Send schedules deliver to run when a message of the given flit count
// arrives at dst, reserving link bandwidth along the route.
func (n *Network) Send(src, dst int, flits int, deliver func()) {
	n.engine.At(n.arrival(src, dst, flits), deliver)
}

// SendEvent is the allocation-free variant of Send: instead of a delivery
// closure it schedules a typed engine event (h.OnEvent(kind, a, p)) at the
// arrival cycle. Hot protocol paths use it to deliver pooled messages
// without a per-hop closure allocation.
func (n *Network) SendEvent(src, dst, flits int, h sim.Handler, kind uint8, a uint64, p any) {
	n.engine.AtEvent(n.arrival(src, dst, flits), h, kind, a, p)
}

// arrival reserves link bandwidth along the route and returns the absolute
// cycle at which the message's tail flit reaches dst.
func (n *Network) arrival(src, dst, flits int) uint64 {
	n.Messages++
	now := n.engine.Now()
	if src == dst {
		return now + maxU64(n.cfg.LocalLatency, 1)
	}
	var route []int32
	if n.routes != nil {
		route = n.routes[src*n.tiles+dst]
	} else {
		// On-demand routing for machines beyond the precompute bound; the
		// scratch link buffer is reused across messages.
		n.scratch = n.topo.AppendRoute(n.scratch[:0], src, dst)
		route = n.scratchIdx(n.scratch)
	}
	if len(route) == 0 {
		// Distinct tiles on the same router (concentrated mesh): the local
		// crossbar, like a tile talking to itself; never zero cycles.
		return now + maxU64(n.cfg.LocalLatency, 1)
	}
	n.FlitHops += uint64(flits * len(route))
	if n.cfg.Perfect {
		lat := uint64(len(route)) * (n.cfg.LinkLatency + n.cfg.RouterDelay)
		return now + maxU64(lat, 1)
	}
	if n.Tracer.Enabled(trace.CatNoC) {
		n.Tracer.Emitf(src, trace.CatNoC, 0, "enqueue %d->%d flits=%d hops=%d", src, dst, flits, len(route))
	}
	// Head-flit arrival time threads through each link in order; the link
	// is then occupied for the serialization time of the whole message.
	t := now
	var stalled uint64
	for _, li := range route {
		start := maxU64(t, n.busyUntil[li])
		n.QueueWait += start - t
		stalled += start - t
		t = start + n.cfg.LinkLatency + n.cfg.RouterDelay
		n.busyUntil[li] = start + uint64(flits)
	}
	// Tail flit arrives (flits-1) cycles after the head.
	t += uint64(flits - 1)
	if n.Tracer.Enabled(trace.CatNoC) {
		if stalled > 0 {
			n.Tracer.Emitf(src, trace.CatNoC, 0, "serialization stall %d->%d wait=%d", src, dst, stalled)
		}
		n.Tracer.Emitf(dst, trace.CatNoC, 0, "dequeue %d->%d at=%d", src, dst, t)
	}
	return t
}

// scratchIdx converts scratch links to flat busyUntil indices in place —
// an int32 slice aliasing a separate reused buffer.
func (n *Network) scratchIdx(links []topology.Link) []int32 {
	if cap(n.scratchIdxBuf) < len(links) {
		n.scratchIdxBuf = make([]int32, len(links), 2*len(links))
	}
	idx := n.scratchIdxBuf[:len(links)]
	for i, l := range links {
		idx[i] = int32(l.From*n.tiles + l.To)
	}
	return idx
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
