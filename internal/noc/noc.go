// Package noc models the on-chip interconnect of the tiled CMP over a
// topology.Topology router grid: the paper's Table I machine is a 4x8 mesh
// with X-Y routing, and the scaled machines (DESIGN.md §13) run the same
// model over larger meshes, tori, and concentrated meshes up to 1024 tiles.
// Flits are 16 bytes over 1-cycle links at 1 flit/cycle (Table I).
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

// RouteTableTiles bounds the route table: a T-tile machine stores T^2
// routes, so bigger machines route on demand instead.
const RouteTableTiles = 256

// Network delivers messages between tiles of a topology.
type Network struct {
	engine *sim.Engine
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
	// along the route, built once so the arrival loop walks a dense int32
	// slice instead of re-deriving link identities per message. Machines
	// beyond RouteTableTiles skip the tiles² table and convert each route
	// on demand into scratchIdx instead.
	routes     [][]int32
	topo       topology.Topology
	scratch    []topology.Link
	scratchIdx []int32

	// Tracer, when non-nil, records CatNoC events: link enqueue,
	// serialization stalls, and scheduled delivery.
	Tracer *trace.Tracer

	// Stats.
	Messages  uint64
	FlitHops  uint64
	QueueWait uint64
}

// New creates a network over the given topology. Its route table is the
// only one in the simulator: every route is converted once from
// topology.AppendRoute through one reused link buffer into a single backing
// array sized by the routes' total Hops.
func New(engine *sim.Engine, topo topology.Topology, cfg Config) *Network {
	t := topo.Tiles()
	n := &Network{
		engine:    engine,
		topo:      topo,
		cfg:       cfg,
		busyUntil: make([]uint64, t*t),
		tiles:     t,
	}
	if t > RouteTableTiles {
		return n // on-demand routing via scratch
	}
	total := 0
	for src := 0; src < t; src++ {
		for dst := 0; dst < t; dst++ {
			total += topo.Hops(src, dst)
		}
	}
	backing := make([]int32, 0, total) // one allocation backs every route
	n.routes = make([][]int32, t*t)
	for i := range n.routes {
		start := len(backing)
		backing = n.appendRoute(backing, i/t, i%t)
		n.routes[i] = backing[start:len(backing):len(backing)]
	}
	return n
}

// Topo returns the underlying topology.
func (n *Network) Topo() topology.Topology { return n.topo }

// Reset returns the network to its just-constructed state in place: all
// link reservations released and stats zeroed. The route table and the
// on-demand scratch buffers are construction artifacts of the (immutable)
// topology and survive; the simulated clock restarts at zero after a
// machine reset, so stale busyUntil times must not.
func (n *Network) Reset() {
	for i := range n.busyUntil {
		n.busyUntil[i] = 0
	}
	n.scratch = n.scratch[:0]
	n.scratchIdx = n.scratchIdx[:0]
	n.Messages, n.FlitHops, n.QueueWait = 0, 0, 0
}

// SendEvent schedules a typed engine event (h.OnEvent(kind, a, p)) at the
// cycle a message of the given flit count from src arrives at dst,
// reserving link bandwidth along the route. Protocol paths deliver pooled
// messages through it without a per-hop closure allocation.
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
		n.scratchIdx = n.appendRoute(n.scratchIdx[:0], src, dst)
		route = n.scratchIdx
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

// appendRoute appends the flat busyUntil indices of the links from src to
// dst to buf, routing through the reused scratch link buffer: the one
// conversion behind both the route table and on-demand routing.
func (n *Network) appendRoute(buf []int32, src, dst int) []int32 {
	n.scratch = n.topo.AppendRoute(n.scratch[:0], src, dst)
	for _, l := range n.scratch {
		buf = append(buf, int32(l.From*n.tiles+l.To))
	}
	return buf
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
