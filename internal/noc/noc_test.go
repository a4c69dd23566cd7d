package noc

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// deliveries is a sim.Handler that records every delivered message: the
// id the sender passed as the event's a word, and the arrival cycle.
type deliveries struct {
	e   *sim.Engine
	ids []uint64 // message ids in delivery order
	at  []uint64 // arrival cycles, parallel to ids
}

func (d *deliveries) OnEvent(_ uint8, id uint64, _ any) {
	d.ids = append(d.ids, id)
	d.at = append(d.at, d.e.Now())
}

// send sends message id from src to dst through SendEvent.
func (d *deliveries) send(n *Network, src, dst, flits int, id uint64) {
	n.SendEvent(src, dst, flits, d, 0, id, nil)
}

// cycle returns the arrival cycle of message id, 0 if it never arrived.
func (d *deliveries) cycle(id uint64) uint64 {
	for i, v := range d.ids {
		if v == id {
			return d.at[i]
		}
	}
	return 0
}

// newNetOn builds a network over the given topology kind and tile count.
func newNetOn(t *testing.T, kind string, tiles int, cfg Config) (*sim.Engine, *Network, *deliveries) {
	t.Helper()
	topo, err := topology.New(kind, tiles)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	return e, New(e, topo, cfg), &deliveries{e: e}
}

// newNet builds a network over Table I's 4x8 mesh.
func newNet(t *testing.T, cfg Config) (*sim.Engine, *Network, *deliveries) {
	return newNetOn(t, "mesh", 32, cfg)
}

func runEngine(t *testing.T, e *sim.Engine) {
	t.Helper()
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestSendLatencyScalesWithHops(t *testing.T) {
	e, n, d := newNet(t, DefaultConfig())
	d.send(n, 0, 1, ControlFlits, 1)
	d.send(n, 0, 3, ControlFlits, 2)
	runEngine(t, e)
	t1, t2 := d.cycle(1), d.cycle(2)
	if t1 == 0 || t2 == 0 {
		t.Fatal("messages not delivered")
	}
	if t2 <= t1 {
		t.Fatalf("3-hop (%d) should take longer than 1-hop (%d)", t2, t1)
	}
}

func TestDataSlowerThanControl(t *testing.T) {
	e, n, d := newNet(t, DefaultConfig())
	d.send(n, 0, 31, ControlFlits, 1)
	runEngine(t, e)
	e2, n2, d2 := newNet(t, DefaultConfig())
	d2.send(n2, 0, 31, DataFlits, 1)
	runEngine(t, e2)
	tc, td := d.cycle(1), d2.cycle(1)
	if td != tc+DataFlits-ControlFlits {
		t.Fatalf("data latency %d, control %d: want tail-flit delta %d", td, tc, DataFlits-ControlFlits)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	e, n, d := newNet(t, DefaultConfig())
	// Two data messages over the same first link at the same cycle.
	d.send(n, 0, 3, DataFlits, 1)
	d.send(n, 0, 3, DataFlits, 2)
	runEngine(t, e)
	if len(d.at) != 2 {
		t.Fatalf("got %d deliveries", len(d.at))
	}
	if d.at[1] < d.at[0]+DataFlits {
		t.Fatalf("second message arrived at %d, first at %d: no serialization", d.at[1], d.at[0])
	}
	if n.QueueWait == 0 {
		t.Fatal("expected queueing delay recorded")
	}
}

func TestPerfectModeNoContention(t *testing.T) {
	e, n, d := newNet(t, Config{LinkLatency: 1, RouterDelay: 1, LocalLatency: 1, Perfect: true})
	d.send(n, 0, 3, DataFlits, 1)
	d.send(n, 0, 3, DataFlits, 2)
	runEngine(t, e)
	if d.at[0] != d.at[1] {
		t.Fatalf("perfect mode should deliver both at once: %v", d.at)
	}
	if n.QueueWait != 0 {
		t.Fatal("perfect mode recorded queue wait")
	}
}

func TestLocalDelivery(t *testing.T) {
	e, n, d := newNet(t, DefaultConfig())
	d.send(n, 7, 7, DataFlits, 1)
	runEngine(t, e)
	if at := d.cycle(1); at != 1 {
		t.Fatalf("local delivery at %d, want 1", at)
	}
}

func TestDisjointPathsDoNotInterfere(t *testing.T) {
	e, n, d := newNet(t, DefaultConfig())
	// Route 0->1 (top-left) and a route in the bottom row, tiles (0,7) and
	// (1,7) of the 4-wide grid, share no links.
	bottomL, bottomR := 7*4, 7*4+1
	d.send(n, 0, 1, DataFlits, 1)
	d.send(n, bottomL, bottomR, DataFlits, 2)
	runEngine(t, e)
	if a, b := d.cycle(1), d.cycle(2); a != b {
		t.Fatalf("disjoint paths interfered: %d vs %d", a, b)
	}
}

func TestMessageCounting(t *testing.T) {
	e, n, d := newNet(t, DefaultConfig())
	for i := 0; i < 5; i++ {
		d.send(n, 0, 2, ControlFlits, uint64(i))
	}
	runEngine(t, e)
	if n.Messages != 5 {
		t.Fatalf("Messages = %d, want 5", n.Messages)
	}
	if n.FlitHops != 5*2*ControlFlits {
		t.Fatalf("FlitHops = %d", n.FlitHops)
	}
}

func TestNoCTracerHooks(t *testing.T) {
	tr := trace.New(64, map[trace.Category]bool{trace.CatNoC: true})
	e, n, d := newNet(t, DefaultConfig())
	n.Tracer = tr
	tr.Now = e.Now
	// Two data messages over the same route: the second serializes behind
	// the first, so the trace must show enqueues, one stall, and dequeues.
	d.send(n, 0, 3, DataFlits, 1)
	d.send(n, 0, 3, DataFlits, 2)
	runEngine(t, e)
	var enq, stall, deq int
	for _, ev := range tr.Events() {
		if ev.Cat != trace.CatNoC {
			t.Fatalf("unexpected category %v", ev.Cat)
		}
		switch {
		case strings.HasPrefix(ev.What, "enqueue"):
			enq++
		case strings.HasPrefix(ev.What, "serialization stall"):
			stall++
		case strings.HasPrefix(ev.What, "dequeue"):
			deq++
		}
	}
	if enq != 2 || deq != 2 || stall != 1 {
		t.Fatalf("enqueue=%d stall=%d dequeue=%d, want 2/1/2", enq, stall, deq)
	}
}

func TestNoCTracerDisabledByCategory(t *testing.T) {
	// A tracer without CatNoC enabled must record nothing from the NoC.
	tr := trace.New(64, map[trace.Category]bool{trace.CatProto: true})
	e, n, d := newNet(t, DefaultConfig())
	n.Tracer = tr
	tr.Now = e.Now
	d.send(n, 0, 3, DataFlits, 1)
	runEngine(t, e)
	if tr.Total() != 0 {
		t.Fatalf("recorded %d events with CatNoC disabled", tr.Total())
	}
}

func TestOnDemandRoutingBigMachine(t *testing.T) {
	// 1024 tiles is beyond RouteTableTiles: the network must skip the
	// tiles² route table and still deliver with hop-proportional latency.
	e, big, d := newNetOn(t, "mesh", 1024, DefaultConfig())
	if big.routes != nil {
		t.Fatal("1024-tile network should route on demand")
	}
	d.send(big, 0, 1023, ControlFlits, 1)
	runEngine(t, e)
	// 62 hops on the 32x32 grid at 2 cycles each.
	if at := d.cycle(1); at != 62*2 {
		t.Fatalf("on-demand delivery at %d, want %d", at, 62*2)
	}
	// Same route walked twice must contend like the table path does.
	e2, big2, d2 := newNetOn(t, "mesh", 1024, DefaultConfig())
	d2.send(big2, 0, 3, DataFlits, 1)
	d2.send(big2, 0, 3, DataFlits, 2)
	runEngine(t, e2)
	if len(d2.at) != 2 || d2.at[1] <= d2.at[0] {
		t.Fatalf("on-demand contention wrong: %v", d2.at)
	}
}

// TestRouteTableMatchesOnDemand: at RouteTableTiles, the largest machine
// that gets a table, every (src, dst) table entry must equal the on-demand
// conversion of topology.AppendRoute that machines beyond the bound use,
// on every kind.
func TestRouteTableMatchesOnDemand(t *testing.T) {
	for _, kind := range []string{"mesh", "torus", "cmesh"} {
		_, n, _ := newNetOn(t, kind, RouteTableTiles, DefaultConfig())
		if n.routes == nil {
			t.Fatalf("%s: %d-tile network should have a route table", kind, RouteTableTiles)
		}
		for src := 0; src < n.tiles; src++ {
			for dst := 0; dst < n.tiles; dst++ {
				got := n.routes[src*n.tiles+dst]
				want := n.appendRoute(nil, src, dst)
				if len(got) != len(want) || len(got) != n.topo.Hops(src, dst) {
					t.Fatalf("%s %d->%d: table %v, on demand %v, %d hops", kind, src, dst, got, want, n.topo.Hops(src, dst))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %d->%d: table %v, on demand %v", kind, src, dst, got, want)
					}
				}
			}
		}
	}
}

// TestNewAllocs bounds what building a topology and its network allocates:
// the route table is one backing array and one slice header array, not a
// per-route allocation.
func TestNewAllocs(t *testing.T) {
	for _, kind := range []string{"mesh", "torus", "cmesh"} {
		for _, tiles := range []int{32, RouteTableTiles} {
			allocs := testing.AllocsPerRun(2, func() {
				topo, err := topology.New(kind, tiles)
				if err != nil {
					t.Fatal(err)
				}
				New(sim.NewEngine(), topo, DefaultConfig())
			})
			if allocs > 16 {
				t.Errorf("%s/%d: topology.New + noc.New made %.0f allocations, want at most 16", kind, tiles, allocs)
			}
		}
	}
}

func TestCMeshSameRouterUsesLocalLatency(t *testing.T) {
	e, n, d := newNetOn(t, "cmesh", 64, DefaultConfig())
	d.send(n, 0, 3, ControlFlits, 1) // same router
	runEngine(t, e)
	if at := d.cycle(1); at != 1 {
		t.Fatalf("same-router delivery at %d, want LocalLatency 1", at)
	}
}

func TestTorusNetworkDelivers(t *testing.T) {
	e, n, d := newNetOn(t, "torus", 32, DefaultConfig())
	// Wraparound neighbor: one hop on the 4x8 torus, 3 on a mesh.
	d.send(n, 0, 3, ControlFlits, 1)
	runEngine(t, e)
	if at := d.cycle(1); at != 2 {
		t.Fatalf("torus wraparound delivery at %d, want one hop (2 cycles)", at)
	}
}
