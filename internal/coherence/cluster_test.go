package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// csys builds an 8-core clustered system (two clusters of 4) for
// two-level-directory tests.
func csys(t *testing.T, hc htm.Config) (*sim.Engine, *System) {
	t.Helper()
	e := sim.NewEngine()
	p := DefaultParams()
	p.Cores = 8
	p.ClusterSize = 4
	p.LLCSize = 1 << 20
	sys := NewSystem(e, p, hc)
	for i := 0; i < p.Cores; i++ {
		sys.L1s[i].SetClient(&testClient{})
	}
	return e, sys
}

// TestClusteredGetMOverSharers drives the full two-level round: sharers in
// both clusters, a GetM from one of them, and the home must end with the
// requester exclusive and every other copy invalid — exactly the flat
// directory's outcome.
func TestClusteredGetMOverSharers(t *testing.T) {
	e, sys := csys(t, baseCfg())
	l := mem.Line(100) // homed at bank 4 (cluster 1)
	if h := sys.HomeBank(l); sys.clusterOf(h) != 1 {
		t.Fatalf("test expects line 100 homed in cluster 1, got bank %d", h)
	}
	// Readers in both clusters: 0, 1 (cluster 0) and 5, 6 (cluster 1).
	for _, c := range []int{0, 1, 5, 6} {
		access(t, e, sys, c, l, false)
	}
	// Writer in cluster 0: own-cluster sharers 0, 1 reach the home through a
	// ClInv round; sharer 5, 6 are home-cluster directs.
	access(t, e, sys, 0, l, true)
	drain(e)
	if got := st(sys, 0, l); got != cache.Modified {
		t.Fatalf("writer state = %v, want M", got)
	}
	for _, c := range []int{1, 5, 6} {
		if got := st(sys, c, l); got != cache.Invalid {
			t.Fatalf("core %d state = %v, want I after clustered invalidation", c, got)
		}
	}
	rounds := uint64(0)
	for _, b := range sys.Banks {
		rounds += b.ClusterRounds
	}
	if rounds == 0 {
		t.Fatal("no cluster-collector round fired; fanout stayed flat")
	}
	if len(sys.Banks[sys.HomeBank(l)].collects) != 0 {
		t.Fatal("collector round leaked")
	}
}

// TestClusteredRejectPropagates checks the InvReject path through a
// collector: a transactional sharer in a remote cluster wins arbitration,
// so the requester's GetM must come back rejected and the winner keep its
// copy.
func TestClusteredRejectPropagates(t *testing.T) {
	e, sys := csys(t, recoveryCfg(htm.WaitWakeup))
	l := mem.Line(3) // homed at bank 3 (cluster 0)
	// Core 6 (cluster 1) reads the line inside a high-priority transaction.
	sys.L1s[6].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 6, l, false)
	drain(e)
	sys.L1s[6].Tx.InstsRetired = 1000
	// Core 0 reads too, then a low-priority transaction on it writes: the
	// fanout must delegate core 6's invalidation to cluster 1's collector,
	// and the transactional sharer rejects it through the collector.
	access(t, e, sys, 0, l, false)
	drain(e)
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	done := tryAccess(e, sys, 0, l, true)
	for i := 0; i < 10000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}
	if *done {
		t.Fatal("write should have been rejected by the remote transactional sharer")
	}
	if got := st(sys, 6, l); got != cache.Shared {
		t.Fatalf("winning sharer state = %v, want S", got)
	}
	for _, b := range sys.Banks {
		if len(b.collects) != 0 {
			t.Fatalf("bank %d leaked a collector round", b.id)
		}
	}
}

// TestClusteredMatchesFlatOutcome runs the same access script on a flat and
// a clustered 8-core machine: logical outcomes (final states) must agree
// even though timings differ.
func TestClusteredMatchesFlatOutcome(t *testing.T) {
	run := func(clusterSize int) []cache.State {
		e := sim.NewEngine()
		p := DefaultParams()
		p.Cores = 8
		p.ClusterSize = clusterSize
		p.LLCSize = 1 << 20
		sys := NewSystem(e, p, baseCfg())
		for i := 0; i < p.Cores; i++ {
			sys.L1s[i].SetClient(&testClient{})
		}
		for l := mem.Line(0); l < 24; l++ {
			for c := 0; c < 8; c += 2 {
				access(t, e, sys, c, l, false)
			}
			access(t, e, sys, int(l)%8, l, true)
		}
		drain(e)
		var out []cache.State
		for l := mem.Line(0); l < 24; l++ {
			for c := 0; c < 8; c++ {
				out = append(out, st(sys, c, l))
			}
		}
		return out
	}
	flat, clustered := run(0), run(4)
	for i := range flat {
		if flat[i] != clustered[i] {
			t.Fatalf("state %d diverged: flat %v, clustered %v", i, flat[i], clustered[i])
		}
	}
}
