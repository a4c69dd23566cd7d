package sim

import (
	"errors"
	"fmt"
	"sort"
	"testing"
)

// fired is one OnEvent call: the cycle it ran at, its handler and its
// kind and payload words.
type fired struct {
	when uint64
	h    Handler
	kind uint8
	a    uint64
	p    any
}

// diffRun drives an engine with a random schedule and keeps the reference
// model: every event it scheduled, with the seq the engine must have given
// it, so the executed sequence must equal that list sorted by (when, seq).
type diffRun struct {
	t     *testing.T
	e     *Engine
	rng   *RNG
	hs    []Handler
	probe *diffProbe

	sched  []fired // indexed by seq-1, the order of scheduling
	ran    []fired
	target int // events to schedule in total

	heapAt    []uint64 // cycles of heap-bound events, for same-cycle ring ties
	inHandler bool
	probed    bool
	// Coverage: events scheduled per tier, delay-0 events scheduled into the
	// bucket being drained, ring events on a heap event's cycle, and events
	// run under the probe.
	ring, heap, zero, ties, bracketed int
}

// plainHandler and classedHandler are the two probe classes: the default
// "event" and a ProbeClasser's own name.
type plainHandler struct{ r *diffRun }

func (h *plainHandler) OnEvent(kind uint8, a uint64, p any) { h.r.fire(h, kind, a, p) }

type classedHandler struct {
	r     *diffRun
	class string
}

func (h *classedHandler) OnEvent(kind uint8, a uint64, p any) { h.r.fire(h, kind, a, p) }
func (h *classedHandler) ProbeClass() string                  { return h.class }

// diffProbe checks that each dispatch is bracketed exactly once, around
// exactly one OnEvent call, and named with that event's class and kind.
type diffProbe struct {
	r    *diffRun
	open bool
	at   int // len(r.ran) at EventBegin
	n    int
}

func (pr *diffProbe) EventBegin() {
	if pr.open {
		pr.r.t.Fatal("EventBegin inside an open bracket")
	}
	pr.open, pr.at = true, len(pr.r.ran)
}

func (pr *diffProbe) EventEnd(class string, kind uint8) {
	r := pr.r
	if !pr.open || len(r.ran) != pr.at+1 {
		r.t.Fatalf("EventEnd: open=%v, %d events ran inside the bracket, want 1", pr.open, len(r.ran)-pr.at)
	}
	f := r.ran[pr.at]
	want := "event"
	if pc, ok := f.h.(ProbeClasser); ok {
		want = pc.ProbeClass()
	}
	if class != want || kind != f.kind {
		r.t.Fatalf("EventEnd(%q, %d) for an event of class %q kind %d", class, kind, want, f.kind)
	}
	pr.open = false
	pr.n++
}

func (r *diffRun) fire(h Handler, kind uint8, a uint64, p any) {
	r.ran = append(r.ran, fired{r.e.Now(), h, kind, a, p})
	if r.probed {
		r.bracketed++
	}
	r.inHandler = true
	r.spawn()
	r.inHandler = false
}

// spawn schedules a few events, keeping the queue populated until target.
func (r *diffRun) spawn() {
	n := r.rng.Intn(3)
	if p := r.e.Pending(); p < 8 {
		n = 2
	} else if p > 64 {
		n = 0
	}
	for ; n > 0 && len(r.sched) < r.target; n-- {
		r.schedule()
	}
}

// schedule adds one event: usually 0-200 cycles out (straddling the ring
// horizon), sometimes at delay 0, sometimes on the cycle of a pending heap
// event that has come within the ring horizon.
func (r *diffRun) schedule() {
	now := r.e.Now()
	t := now + uint64(r.rng.Intn(201))
	switch r.rng.Intn(8) {
	case 0:
		t = now
	case 1:
		live := r.heapAt[:0]
		for _, c := range r.heapAt {
			if c > now {
				live = append(live, c)
			}
		}
		r.heapAt = live
		for _, c := range live {
			if c-now < ringSize {
				t = c
				r.ties++
				break
			}
		}
	}
	switch {
	case t == now && r.inHandler:
		r.zero++
	case t-now >= ringSize:
		r.heap++
		r.heapAt = append(r.heapAt, t)
	default:
		r.ring++
	}
	h := r.hs[r.rng.Intn(len(r.hs))]
	kind, a := uint8(r.rng.Intn(256)), uint64(len(r.sched)+1)
	var p any
	if r.rng.Bool(0.75) {
		p = &a // a distinct pointer per event
	}
	if r.rng.Bool(0.5) {
		r.e.AtEvent(t, h, kind, a, p)
	} else {
		r.e.AfterEvent(t-now, h, kind, a, p)
	}
	r.sched = append(r.sched, fired{t, h, kind, a, p})
}

// TestEngineMatchesReference runs random schedules through both ways of
// driving the queue, Run to a limit and Step, injecting events from outside
// a handler and switching the probe on and off between calls, and checks
// the executed sequence against the reference order, the probe brackets,
// and that the drained queue keeps no handler or payload reachable.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			e := NewEngine()
			e.Watchdog = 0
			r := &diffRun{t: t, e: e, rng: NewRNG(seed), target: 20_000}
			r.probe = &diffProbe{r: r}
			r.hs = []Handler{&plainHandler{r}, &classedHandler{r, "a"}, &classedHandler{r, "b"}}
			for r.e.Pending() < 16 {
				r.schedule()
			}
			for e.Pending() > 0 {
				r.probed = r.rng.Bool(0.5)
				if r.probed {
					e.SetProbe(r.probe)
				} else {
					e.SetProbe(nil)
				}
				switch r.rng.Intn(3) {
				case 0:
					for n := r.rng.Intn(32); n > 0 && e.Step(); n-- {
					}
				case 1:
					if len(r.sched) < r.target && r.rng.Bool(0.5) {
						r.schedule()
					}
				default:
					if err := e.Run(e.Now() + 1 + uint64(r.rng.Intn(300))); err != nil && !errors.Is(err, ErrLimitReached) {
						t.Fatal(err)
					}
				}
			}
			if r.probe.open || r.probe.n != r.bracketed {
				t.Fatalf("probe bracketed %d events (open=%v), %d ran under it", r.probe.n, r.probe.open, r.bracketed)
			}
			if r.ring == 0 || r.heap == 0 || r.zero == 0 || r.ties == 0 || r.bracketed == 0 || r.bracketed == len(r.ran) {
				t.Fatalf("schedule missed a case: ring %d heap %d zero-delay %d ties %d probed %d of %d",
					r.ring, r.heap, r.zero, r.ties, r.bracketed, len(r.ran))
			}
			want := append([]fired(nil), r.sched...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].when < want[j].when })
			if len(r.ran) != len(want) {
				t.Fatalf("executed %d events, scheduled %d", len(r.ran), len(want))
			}
			for i, got := range r.ran {
				if w := want[i]; got != w {
					t.Fatalf("event %d: ran (when %d, kind %d, a %d), want (when %d, kind %d, a %d)",
						i, got.when, got.kind, got.a, w.when, w.kind, w.a)
				}
			}
			for i := range e.q.ring {
				for _, ev := range e.q.ring[i].ev[:cap(e.q.ring[i].ev)] {
					if ev.h != nil || ev.p != nil {
						t.Fatalf("drained ring bucket %d still holds event a=%d", i, ev.a)
					}
				}
			}
			for _, ev := range e.q.heap[:cap(e.q.heap)] {
				if ev.h != nil || ev.p != nil {
					t.Fatalf("drained heap still holds event a=%d", ev.a)
				}
			}
		})
	}
}
