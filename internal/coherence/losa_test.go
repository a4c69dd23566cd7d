package coherence

import (
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/priority"
)

// losaCfg mirrors the harness's LosaTM-SAFU construction.
func losaCfg() htm.Config {
	return htm.Config{Conflict: htm.Losa{}, Priority: priority.Progression{}}.Defaults()
}

func TestLosaUsesProgressionPriority(t *testing.T) {
	e, sys, cl := tsys(t, losaCfg())
	// Owner with a large footprint (progression priority) but few insts.
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	for i := 0; i < 6; i++ {
		access(t, e, sys, 0, mem.Line(4096+i*64), true)
		drain(e)
	}
	if sys.L1s[0].Tx.Priority() < 6 {
		t.Fatalf("progression priority = %d, want footprint", sys.L1s[0].Tx.Priority())
	}
	// A small-footprint requester loses even with many retired insts.
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	sys.L1s[1].Tx.InstsRetired = 1 << 30 // irrelevant under progression
	done := tryAccess(e, sys, 1, 4096, false)
	for i := 0; i < 5000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}
	if *done || len(cl[0].dooms) != 0 {
		t.Fatal("large-footprint owner should win under LosaTM arbitration")
	}
	sys.L1s[0].CommitTx()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if !*done {
		t.Fatal("wake-up retry failed")
	}
}

func TestLosaArbitrationDelay(t *testing.T) {
	// LosaTM's arbitration logic costs an extra cycle on the reject path
	// (related work: "the cache controller needs an extra cycle of delay").
	reject := func(cfg htm.Config) uint64 {
		e, sys, _ := tsys(t, cfg)
		sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
		access(t, e, sys, 0, 4096, true)
		drain(e)
		sys.L1s[0].Tx.InstsRetired = 1000
		sys.L1s[0].Tx.ReadLines = 1000 // large under either metric
		sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
		start := e.Now()
		tryAccess(e, sys, 1, 4096, false)
		for sys.L1s[1].RejectsReceived == 0 {
			if !e.Step() {
				t.Fatal("no reject")
			}
		}
		return e.Now() - start
	}
	losa := reject(losaCfg())
	lockiller := reject(recoveryCfg(htm.WaitWakeup))
	if losa != lockiller+1 {
		t.Fatalf("losa reject latency %d, lockiller %d: want exactly +1 cycle", losa, lockiller)
	}
}
