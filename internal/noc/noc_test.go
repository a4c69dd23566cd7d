package noc

import (
	"runtime"
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
	n.Obs = tr
	tr.Now = e.Now
	// Two data messages over the same route: the second serializes behind
	// the first, so the trace must show enqueues, one stall, and dequeues.
	d.send(n, 0, 3, DataFlits, 1)
	d.send(n, 0, 3, DataFlits, 2)
	runEngine(t, e)
	var enq, stall, deq int
	for _, ev := range tr.Events() {
		if !strings.Contains(ev.String(), " [noc] ") {
			t.Fatalf("unexpected category: %v", ev)
		}
		switch ev.Kind {
		case trace.KindEnqueue:
			enq++
		case trace.KindStall:
			stall++
		case trace.KindDequeue:
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
	n.Obs = tr
	tr.Now = e.Now
	d.send(n, 0, 3, DataFlits, 1)
	runEngine(t, e)
	if tr.Total() != 0 {
		t.Fatalf("recorded %d events with CatNoC disabled", tr.Total())
	}
}

func TestOnDemandRoutingBigMachine(t *testing.T) {
	// The 1024-tile ceiling walks its routes like every other size and
	// must still deliver with hop-proportional latency.
	e, big, d := newNetOn(t, "mesh", 1024, DefaultConfig())
	d.send(big, 0, 1023, ControlFlits, 1)
	runEngine(t, e)
	// 62 hops on the 32x32 grid at 2 cycles each.
	if at := d.cycle(1); at != 62*2 {
		t.Fatalf("on-demand delivery at %d, want %d", at, 62*2)
	}
	// The same route walked twice must contend on its shared links.
	e2, big2, d2 := newNetOn(t, "mesh", 1024, DefaultConfig())
	d2.send(big2, 0, 3, DataFlits, 1)
	d2.send(big2, 0, 3, DataFlits, 2)
	runEngine(t, e2)
	if len(d2.at) != 2 || d2.at[1] <= d2.at[0] {
		t.Fatalf("on-demand contention wrong: %v", d2.at)
	}
}

// walkShapes returns the topologies the walk differential covers: every
// kind at 1-64 tiles and at the powers of two up to the 1024-tile ceiling,
// plus every hand-built grid of W, H <= 9 with 1-4 tiles per router, with
// and without wraparound.
func walkShapes() []topology.Topology {
	var shapes []topology.Topology
	for _, kind := range []string{"mesh", "torus", "cmesh"} {
		for tiles := 1; tiles <= 1024; tiles++ {
			if tiles > 64 && tiles&(tiles-1) != 0 {
				continue
			}
			if topo, err := topology.New(kind, tiles); err == nil {
				shapes = append(shapes, topo)
			}
		}
	}
	for w := 1; w <= 9; w++ {
		for h := 1; h <= 9; h++ {
			for conc := 1; conc <= 4; conc++ {
				for _, wrap := range []bool{false, true} {
					shapes = append(shapes, topology.Topology{W: w, H: h, Conc: conc, Wrap: wrap})
				}
			}
		}
	}
	return shapes
}

// TestWalkReservesAppendRouteLinks is the differential that pins the port
// walk to the reference routes: on every shape of walkShapes, a message
// from src to dst on an idle network reserves exactly the links
// topology.AppendRoute lists, in order, and one bijection between port
// slots and (from, to) links holds across all of the shape's routes.
// Every source is walked up to 256 tiles and every 7th beyond; -short
// walks about 16 sources of each shape above 32 tiles.
func TestWalkReservesAppendRouteLinks(t *testing.T) {
	const flits = ControlFlits
	hop := DefaultConfig().LinkLatency + DefaultConfig().RouterDelay
	routes := 0
	var want []topology.Link
	var order []int // order[i] is the slot of the route's i-th link
	for _, topo := range walkShapes() {
		tiles := topo.Tiles()
		stride := 1
		switch {
		case testing.Short() && tiles > 32:
			stride = 1 + tiles/16
		case tiles > 256:
			stride = 7
		}
		n := New(sim.NewEngine(), topo, DefaultConfig())
		slotOf := map[topology.Link]int{}
		linkOf := map[int]topology.Link{}
		for src := 0; src < tiles; src += stride {
			for dst := 0; dst < tiles; dst++ {
				want = topo.AppendRoute(want[:0], src, dst)
				at := n.arrival(src, dst, flits)
				routes++
				if len(want) > 0 && at != uint64(len(want))*hop+flits-1 {
					t.Fatalf("%+v %d->%d: arrives at %d over %d links", topo, src, dst, at, len(want))
				}
				// On an idle network the i-th link is reserved from
				// cycle i*hop, so each busy slot's time names its place.
				order = order[:0]
				for range want {
					order = append(order, -1)
				}
				got := 0
				for slot, busy := range n.busy {
					if busy == 0 {
						continue
					}
					i := int((busy - flits) / hop)
					if i >= len(order) || (busy-flits)%hop != 0 || order[i] >= 0 {
						t.Fatalf("%+v %d->%d: slot %d busy until %d, route %v", topo, src, dst, slot, busy, want)
					}
					order[i] = slot
					got++
					n.busy[slot] = 0
				}
				if got != len(want) {
					t.Fatalf("%+v %d->%d: walk reserved %d links, AppendRoute lists %v", topo, src, dst, got, want)
				}
				for i, l := range want {
					slot := order[i]
					if s, ok := slotOf[l]; ok && s != slot {
						t.Fatalf("%+v %d->%d: link %v reserved slot %d here and %d before", topo, src, dst, l, slot, s)
					}
					if o, ok := linkOf[slot]; ok && o != l {
						t.Fatalf("%+v %d->%d: slot %d is link %v here and %v before", topo, src, dst, slot, l, o)
					}
					slotOf[l], linkOf[slot] = slot, l
				}
			}
		}
	}
	t.Logf("%d routes", routes)
}

// allocBytes returns the average heap bytes f allocates per call.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 8
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestNewAllocs bounds what building a topology and its network
// allocates: a fixed handful of objects, and a port array and position
// table linear in the tiles (the tiles² route table took 4.66 MiB at 256
// tiles and its link array 8 MiB at 1024).
func TestNewAllocs(t *testing.T) {
	e := sim.NewEngine()
	for _, kind := range []string{"mesh", "torus", "cmesh"} {
		for _, tc := range []struct{ tiles, maxBytes int }{{32, 16 << 10}, {256, 16 << 10}, {1024, 64 << 10}} {
			build := func() {
				topo, err := topology.New(kind, tc.tiles)
				if err != nil {
					t.Fatal(err)
				}
				New(e, topo, DefaultConfig())
			}
			if allocs := testing.AllocsPerRun(2, build); allocs > 4 {
				t.Errorf("%s/%d: topology.New + noc.New made %.0f allocations, want at most 4", kind, tc.tiles, allocs)
			}
			if bytes := allocBytes(build); bytes > uint64(tc.maxBytes) {
				t.Errorf("%s/%d: topology.New + noc.New allocated %d bytes, want at most %d", kind, tc.tiles, bytes, tc.maxBytes)
			}
		}
	}
}

// TestResetFreesEveryPort: after traffic, Reset releases every link, and a
// message sent on the reset network arrives at the cycle it takes on a
// fresh one.
func TestResetFreesEveryPort(t *testing.T) {
	for _, kind := range []string{"mesh", "torus", "cmesh"} {
		e, n, d := newNetOn(t, kind, 64, DefaultConfig())
		for i := 0; i < 512; i++ {
			d.send(n, i%64, (i*7+i/64)%64, DataFlits, uint64(i))
		}
		runEngine(t, e)
		if n.QueueWait == 0 {
			t.Fatalf("%s: the traffic never contended", kind)
		}
		e.Reset()
		n.Reset()
		for slot, busy := range n.busy {
			if busy != 0 {
				t.Fatalf("%s: slot %d still busy until %d after Reset", kind, slot, busy)
			}
		}
		if n.Messages != 0 || n.FlitHops != 0 || n.QueueWait != 0 {
			t.Fatalf("%s: stats survived Reset: %d messages, %d flit-hops, %d queued", kind, n.Messages, n.FlitHops, n.QueueWait)
		}
		d.ids, d.at = nil, nil
		d.send(n, 0, 63, DataFlits, 1)
		d.send(n, 0, 63, DataFlits, 2)
		runEngine(t, e)
		fe, fresh, fd := newNetOn(t, kind, 64, DefaultConfig())
		fd.send(fresh, 0, 63, DataFlits, 1)
		fd.send(fresh, 0, 63, DataFlits, 2)
		runEngine(t, fe)
		for _, id := range []uint64{1, 2} {
			if got, want := d.cycle(id), fd.cycle(id); got != want {
				t.Fatalf("%s: message %d arrived at %d after Reset, %d on a fresh network", kind, id, got, want)
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
