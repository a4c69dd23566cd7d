package coherence

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// checkSWMR asserts the Single-Writer-Multiple-Readers property over every
// line cached anywhere: at most one L1 holds a line in E/M, and if one
// does, no other L1 holds any valid copy. The paper's recovery mechanism
// explicitly claims to preserve SWMR (§III-A); this is the checker.
func checkSWMR(t *testing.T, sys *System) {
	t.Helper()
	owners := make(map[mem.Line][]int)
	sharers := make(map[mem.Line][]int)
	for core, l1 := range sys.L1s {
		core := core
		classify := func(e *cache.Entry) {
			switch e.State {
			case cache.Exclusive, cache.Modified:
				owners[e.Line] = append(owners[e.Line], core)
			case cache.Shared:
				sharers[e.Line] = append(sharers[e.Line], core)
			}
		}
		l1.Array().ForEach(classify)
		if mid := l1.MidArray(); mid != nil {
			mid.ForEach(classify)
		}
	}
	for l, os := range owners {
		if len(os) > 1 {
			t.Fatalf("SWMR violated: line %d owned by cores %v", l, os)
		}
		if sh := sharers[l]; len(sh) > 0 {
			t.Fatalf("SWMR violated: line %d owned by %v and shared by %v", l, os, sh)
		}
	}
}

// checkDirConsistency asserts that each directory entry's stable state is
// compatible with the L1 contents: an L1 holding E/M must be the
// registered owner (L1s may silently drop, so the reverse need not hold).
func checkDirConsistency(t *testing.T, sys *System) {
	t.Helper()
	for core, l1 := range sys.L1s {
		core := core
		check := func(e *cache.Entry) {
			if e.State != cache.Exclusive && e.State != cache.Modified {
				return
			}
			b := sys.Banks[sys.HomeBank(e.Line)]
			d := b.dir.lookup(e.Line)
			if d == nil || d.state != dirEM || d.owner != core {
				t.Fatalf("dir inconsistency: core %d holds line %d in %v but dir says %+v",
					core, e.Line, e.State, d)
			}
		}
		l1.Array().ForEach(check)
		if mid := l1.MidArray(); mid != nil {
			mid.ForEach(check)
		}
	}
}

// fuzzSystem drives random transactional and plain accesses through a
// small system, checking invariants after quiescing.
func fuzzSystem(t *testing.T, hc htm.Config, seed uint64, steps int) {
	t.Helper()
	p := DefaultParams()
	p.Cores = 4
	p.LLCSize = 32 * 1024
	p.LLCWays = 2 // tiny LLC: exercises back-invalidation too
	fuzzSystemParams(t, p, hc, seed, steps)
}

// fuzzSystemParams drives the fuzzer over a specific machine shape.
func fuzzSystemParams(t *testing.T, p Params, hc htm.Config, seed uint64, steps int) {
	t.Helper()
	e := sim.NewEngine()
	sys := NewSystem(e, p, hc)
	clients := make([]*testClient, p.Cores)
	for i := range clients {
		clients[i] = &testClient{}
		sys.L1s[i].SetClient(clients[i])
	}
	rng := sim.NewRNG(seed)

	inTx := make([]bool, p.Cores)
	for s := 0; s < steps; s++ {
		core := rng.Intn(p.Cores)
		l1 := sys.L1s[core]
		// If this core's transaction was doomed, reflect the rollback.
		if inTx[core] && l1.Tx.Doomed {
			inTx[core] = false
			l1.Tx.Reset()
		}
		switch rng.Intn(10) {
		case 0:
			if !inTx[core] && !l1.Tx.InTx() {
				l1.Tx.BeginAttempt(htm.HTM, e.Now())
				inTx[core] = true
			}
		case 1:
			if inTx[core] && l1.Tx.Mode == htm.HTM && !l1.Tx.Doomed {
				l1.CommitTx()
				l1.Tx.Reset()
				inTx[core] = false
			}
		case 2:
			if inTx[core] && l1.Tx.Mode == htm.HTM && !l1.Tx.Doomed {
				l1.AbortLocal(htm.CauseFault)
				inTx[core] = false
				l1.Tx.Reset()
			}
		default:
			line := mem.Line(4096 + rng.Intn(64)) // hot 64-line pool
			write := rng.Bool(0.4)
			if l1.Tx.Mode == htm.STL {
				// A fuzz step may have switched the tx; finish it.
				l1.HLEnd()
				l1.Tx.Reset()
				inTx[core] = false
			}
			l1.Access(line, write, func() {})
		}
		// Randomly interleave event processing with injection.
		for i := rng.Intn(30); i > 0 && e.Step(); i-- {
		}
	}
	// Quiesce: finish transactions so parked requests drain, then run dry.
	for drained := false; !drained; {
		drained = true
		for core, l1 := range sys.L1s {
			if l1.Tx.Doomed {
				l1.Tx.Reset()
				inTx[core] = false
			}
			if inTx[core] && l1.Tx.Mode == htm.HTM {
				l1.CommitTx()
				l1.Tx.Reset()
				inTx[core] = false
				drained = false
			}
			if l1.Tx.Mode.Lock() {
				l1.HLEnd()
				l1.Tx.Reset()
				inTx[core] = false
				drained = false
			}
		}
		for e.Step() {
		}
	}
	checkSWMR(t, sys)
	checkDirConsistency(t, sys)
}

func TestFuzzSWMRBaseline(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fuzzSystem(t, baseCfg(), seed, 800)
		})
	}
}

func TestFuzzSWMRRecovery(t *testing.T) {
	for _, pol := range []htm.RejectPolicy{htm.SelfAbort, htm.RetryLater, htm.WaitWakeup} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%v-seed%d", pol, seed), func(t *testing.T) {
				fuzzSystem(t, recoveryCfg(pol), seed, 800)
			})
		}
	}
}

func TestFuzzSWMRLockiller(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fuzzSystem(t, htmlockCfg(true), seed, 800)
		})
	}
}
