package noc

import "testing"

// TestPerPathFIFO: messages between the same source and destination must
// arrive in send order — the protocol's lazy NACK reconciliation depends
// on it (a TxWB must land before a later NACK from the same L1).
func TestPerPathFIFO(t *testing.T) {
	e, n, d := newNet(t, DefaultConfig())
	// Interleave data and control messages; control is smaller but must
	// not overtake on the same path.
	for i := 0; i < 20; i++ {
		flits := DataFlits
		if i%3 == 0 {
			flits = ControlFlits
		}
		d.send(n, 0, 31, flits, uint64(i))
	}
	runEngine(t, e)
	if len(d.ids) != 20 {
		t.Fatalf("delivered %d", len(d.ids))
	}
	for i, v := range d.ids {
		if v != uint64(i) {
			t.Fatalf("reordered delivery: %v", d.ids)
		}
	}
}

// TestCrossTrafficDelaysSharedLink: two flows sharing one link interfere;
// a third flow on disjoint links does not.
func TestCrossTrafficDelaysSharedLink(t *testing.T) {
	solo := func(extra bool) uint64 {
		e, n, d := newNet(t, DefaultConfig())
		if extra {
			// A flow 0 -> 3 shares the 0->1 link with our 0 -> 1 probe.
			for i := 0; i < 8; i++ {
				d.send(n, 0, 3, DataFlits, uint64(i+1))
			}
		}
		d.send(n, 0, 1, DataFlits, 0)
		runEngine(t, e)
		return d.cycle(0)
	}
	base := solo(false)
	loaded := solo(true)
	if loaded <= base {
		t.Fatalf("shared-link contention missing: %d vs %d", loaded, base)
	}
}
