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

// ports is the number of directed links leaving each router: +x, -x, +y
// and -y, in that order. A leg stepping dir (+1 or -1) along X leaves
// through port (1-dir)/2, and along Y through port 2+(1-dir)/2.
const ports = 4

// Network delivers messages between tiles of a topology.
type Network struct {
	engine *sim.Engine
	cfg    Config
	topo   topology.Topology

	// busy[r*ports+p] is the cycle at which the link leaving router r
	// through port p becomes free: 8 KiB at 256 tiles, 32 KiB at 1024.
	// A port names a link one-to-one with the (from, to) pair
	// topology.AppendRoute names, over every link a route can use: the
	// only routers joined by two ports each way are the two of a length-2
	// ring, and its dateline tie always resolves toward +, so its - ports
	// stay unused (DESIGN.md "One router grid").
	busy []uint64
	// pos[tile] is the grid position of the tile's router, so a message
	// looks both endpoints up instead of dividing by Conc and W.
	pos []routerXY

	// Obs, when non-nil, receives the link enqueue, serialization stall
	// and scheduled delivery of each message that crosses a link.
	Obs trace.Observer

	// Stats.
	Messages  uint64
	FlitHops  uint64
	QueueWait uint64
}

// routerXY is a router's grid position.
type routerXY struct{ x, y int32 }

// New creates a network over the given topology: every message walks its
// route on the router grid (topology.Leg), so building one costs a port
// array and a per-tile position table, whatever the machine size.
func New(engine *sim.Engine, topo topology.Topology, cfg Config) *Network {
	n := &Network{
		engine: engine,
		topo:   topo,
		cfg:    cfg,
		busy:   make([]uint64, ports*topo.W*topo.H),
		pos:    make([]routerXY, topo.Tiles()),
	}
	for tile := range n.pos {
		x, y := topo.XY(tile)
		n.pos[tile] = routerXY{int32(x), int32(y)}
	}
	return n
}

// Topo returns the underlying topology.
func (n *Network) Topo() topology.Topology { return n.topo }

// Reset returns the network to its just-constructed state in place: all
// link reservations released and stats zeroed. The simulated clock
// restarts at zero after a machine reset, so stale busy times must not
// survive it.
func (n *Network) Reset() {
	clear(n.busy)
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
	s, d := n.pos[src], n.pos[dst]
	hx, dirX := n.topo.Leg(int(s.x), int(d.x), n.topo.W)
	hy, dirY := n.topo.Leg(int(s.y), int(d.y), n.topo.H)
	hops := hx + hy
	if hops == 0 {
		// A tile talking to itself, or to another tile of its router on a
		// concentrated mesh: the local crossbar; never zero cycles.
		return now + maxU64(n.cfg.LocalLatency, 1)
	}
	n.FlitHops += uint64(flits * hops)
	if n.cfg.Perfect {
		lat := uint64(hops) * (n.cfg.LinkLatency + n.cfg.RouterDelay)
		return now + maxU64(lat, 1)
	}
	if o := n.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindEnqueue, Core: src, Src: src, Dst: dst, Count: flits, Hops: hops})
	}
	// Head-flit arrival time threads through each link in order, the X leg
	// from src's router and then the Y leg from the router in dst's column;
	// each link is then occupied for the serialization time of the whole
	// message.
	w, hop, occupy := n.topo.W, n.cfg.LinkLatency+n.cfg.RouterDelay, uint64(flits)
	t, waitX := n.leg(now, (int(s.y)*w+int(s.x))*ports+(1-dirX)/2, ports*dirX, int(s.x), dirX, w, hx, hop, occupy)
	t, waitY := n.leg(t, (int(s.y)*w+int(d.x))*ports+2+(1-dirY)/2, ports*w*dirY, int(s.y), dirY, n.topo.H, hy, hop, occupy)
	stalled := waitX + waitY
	n.QueueWait += stalled
	// Tail flit arrives (flits-1) cycles after the head.
	t += uint64(flits - 1)
	if o := n.Obs; o != nil {
		if stalled > 0 {
			o.Event(trace.Event{Kind: trace.KindStall, Core: src, Src: src, Dst: dst, Wait: stalled})
		}
		o.Event(trace.Event{Kind: trace.KindDequeue, Core: dst, Src: src, Dst: dst, End: t})
	}
	return t
}

// leg reserves the hops links of one route leg and returns the head flit's
// time after it and the cycles it queued. The leg starts at busy index li,
// at coordinate c of a dimension of size routers; each hop moves c by dir
// and li by step, and a hop off the grid's edge (a torus wraparound)
// re-enters at the other side.
func (n *Network) leg(t uint64, li, step, c, dir, size, hops int, hop, occupy uint64) (uint64, uint64) {
	var wait uint64
	for ; hops > 0; hops-- {
		start := maxU64(t, n.busy[li])
		wait += start - t
		t = start + hop
		n.busy[li] = start + occupy
		c += dir
		li += step
		if uint(c) >= uint(size) {
			c -= dir * size
			li -= step * size
		}
	}
	return t, wait
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
