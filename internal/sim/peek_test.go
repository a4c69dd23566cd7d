package sim

import "testing"

func TestPeekNextEmpty(t *testing.T) {
	e := NewEngine()
	if _, ok := e.PeekNext(); ok {
		t.Fatal("PeekNext on an empty queue reported an event")
	}
	// Draining the queue must restore the empty answer.
	at(e, 3, func() {})
	if w, ok := e.PeekNext(); !ok || w != 3 {
		t.Fatalf("PeekNext = (%d,%v), want (3,true)", w, ok)
	}
	if !e.Step() {
		t.Fatal("Step did not execute the scheduled event")
	}
	if _, ok := e.PeekNext(); ok {
		t.Fatal("PeekNext after draining reported an event")
	}
}

// TestPeekNextRingHeapTie pins the tie-break at the ring/heap boundary: an
// event scheduled far out (heap) and one scheduled later but nearby (ring)
// can share a cycle; PeekNext must report that cycle once, and the heap
// event must pop first (it was sequenced first).
func TestPeekNextRingHeapTie(t *testing.T) {
	e := NewEngine()
	var order []int
	at(e, 100, func() { order = append(order, 1) }) // 100-0 >= 64: heap
	at(e, 40, func() { order = append(order, 0) })  // ring
	if w, ok := e.PeekNext(); !ok || w != 40 {
		t.Fatalf("PeekNext = (%d,%v), want (40,true)", w, ok)
	}
	e.Step()                                        // now = 40
	at(e, 100, func() { order = append(order, 2) }) // 100-40 < 64: ring, same cycle as the heap event
	if w, ok := e.PeekNext(); !ok || w != 100 {
		t.Fatalf("PeekNext = (%d,%v), want (100,true)", w, ok)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 2} {
		if order[i] != want {
			t.Fatalf("execution order = %v, want [0 1 2] (heap must win the same-cycle tie)", order)
		}
	}
}

// TestPeekNextMatchesPop cross-checks PeekNext against actual execution over
// a randomized schedule spanning both tiers: before every Step, PeekNext
// must name exactly the cycle the next event executes at.
func TestPeekNextMatchesPop(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(99)
	spawned, pending := 0, 0
	var ran uint64
	var fn func()
	fn = func() {
		ran = e.Now()
		pending--
		for spawned < 10_000 && (pending < 4 || (pending < 40 && rng.Bool(0.7))) {
			d := uint64(rng.Intn(200)) // straddles the 64-cycle ring horizon
			after(e, d, fn)
			spawned++
			pending++
		}
	}
	after(e, 0, fn)
	spawned++
	pending++
	steps := 0
	for {
		w, ok := e.PeekNext()
		if !ok {
			break
		}
		if !e.Step() {
			t.Fatal("PeekNext reported an event but Step found none")
		}
		if ran != w {
			t.Fatalf("step %d: PeekNext said %d, event ran at %d", steps, w, ran)
		}
		steps++
	}
	if steps != spawned {
		t.Fatalf("executed %d of %d scheduled events", steps, spawned)
	}
}

func TestAdvanceTo(t *testing.T) {
	e := NewEngine()
	at(e, 50, func() {})
	e.AdvanceTo(49) // strictly before the pending event: fine
	if e.Now() != 49 {
		t.Fatalf("Now = %d after AdvanceTo(49)", e.Now())
	}
	// Scheduling relative to the lazily advanced clock must keep working.
	after(e, 0, func() {})
	if w, _ := e.PeekNext(); w != 49 {
		t.Fatalf("PeekNext = %d, want 49", w)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %d after drain, want 50", e.Now())
	}
}

func TestAdvanceToEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(1_000_000)
	if e.Now() != 1_000_000 {
		t.Fatalf("Now = %d", e.Now())
	}
	// The ring window follows the advanced clock.
	fired := false
	after(e, 2, func() { fired = true })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired || e.Now() != 1_000_002 {
		t.Fatalf("fired=%v Now=%d", fired, e.Now())
	}
}

func TestAdvanceToPastPendingPanics(t *testing.T) {
	for _, tt := range []struct {
		name string
		to   uint64
	}{
		{"equal", 50}, // ties must fall back: the queued event sequences first
		{"past", 51},
	} {
		t.Run(tt.name, func(t *testing.T) {
			e := NewEngine()
			at(e, 50, func() {})
			defer func() {
				if recover() == nil {
					t.Errorf("AdvanceTo(%d) with an event at 50 did not panic", tt.to)
				}
			}()
			e.AdvanceTo(tt.to)
		})
	}
}

func TestAdvanceToBackwardsPanics(t *testing.T) {
	e := NewEngine()
	at(e, 10, func() {})
	at(e, 20, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo behind now did not panic")
		}
	}()
	e.AdvanceTo(5)
}
