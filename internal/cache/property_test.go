package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestRandomOpsInvariants drives random install/lookup/evict/tx sequences
// and checks structural invariants after every step: no duplicate lines,
// set mapping respected, LRU victim correctness.
func TestRandomOpsInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed)
		a := NewArray(4096, 4) // 16 sets
		live := map[mem.Line]bool{}
		for step := 0; step < 5000; step++ {
			l := mem.Line(rng.Intn(200))
			switch rng.Intn(5) {
			case 0, 1: // access (install on miss)
				if e := a.Lookup(l); e != nil {
					if e.Line != l {
						t.Fatal("lookup returned wrong line")
					}
					break
				}
				v := a.Victim(l, nil)
				if v == nil {
					t.Fatal("victim unavailable with no predicate")
				}
				if v.State != Invalid {
					delete(live, v.Line)
				}
				a.Install(v, l, Shared)
				live[l] = true
			case 2: // evict
				if e := a.Peek(l); e != nil && e.State.Valid() {
					e.State = Invalid
					e.TxRead, e.TxWrite = false, false
					delete(live, l)
				}
			case 3: // tx mark
				if e := a.Peek(l); e != nil && e.State.Valid() {
					if rng.Bool(0.5) {
						e.TxRead = true
					} else {
						e.TxWrite = true
					}
				}
			case 4: // clear tx
				abort := rng.Bool(0.5)
				// An abort must drop exactly the valid write-set lines.
				before := map[mem.Line]bool{}
				writes := map[mem.Line]bool{}
				a.ForEach(func(e *Entry) {
					before[e.Line] = true
					if abort && e.TxWrite {
						writes[e.Line] = true
					}
				})
				a.ClearTx(abort)
				after := map[mem.Line]bool{}
				a.ForEach(func(e *Entry) {
					after[e.Line] = true
					if e.Tx() {
						t.Fatalf("line %d kept tx bits across ClearTx", e.Line)
					}
				})
				for l := range before {
					if after[l] == writes[l] {
						t.Fatalf("ClearTx(%v): line %d write-set %v, present after %v",
							abort, l, writes[l], after[l])
					}
				}
				if len(after) != len(before)-len(writes) {
					t.Fatalf("ClearTx(%v): %d lines before, %d dropped, %d after",
						abort, len(before), len(writes), len(after))
				}
				for l := range writes {
					delete(live, l)
				}
			}
			// Invariants.
			seen := map[mem.Line]int{}
			a.ForEach(func(e *Entry) {
				seen[e.Line]++
				if a.SetOf(e.Line) < 0 || a.SetOf(e.Line) >= a.Sets() {
					t.Fatal("line outside set range")
				}
			})
			for l, n := range seen {
				if n > 1 {
					t.Fatalf("line %d present %d times", l, n)
				}
			}
			for l := range live {
				if a.Peek(l) == nil {
					t.Fatalf("live line %d vanished", l)
				}
			}
		}
	}
}

// TestVictimNeverReturnsLineOfOtherSet: the victim entry must belong to
// the target line's set (installing into it must not corrupt mapping).
func TestVictimNeverReturnsLineOfOtherSet(t *testing.T) {
	rng := sim.NewRNG(9)
	a := NewArray(8192, 4)
	for i := 0; i < 2000; i++ {
		l := mem.Line(rng.Intn(1000))
		v := a.Victim(l, nil)
		if v == nil {
			continue
		}
		if v.State != Invalid && a.SetOf(v.Line) != a.SetOf(l) {
			t.Fatalf("victim from set %d for line in set %d", a.SetOf(v.Line), a.SetOf(l))
		}
		a.Install(v, l, Exclusive)
	}
}
