package coherence

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// threeLevel builds a small system with private middle caches.
func threeLevel(t *testing.T, hc htm.Config) *engineSys {
	t.Helper()
	p := DefaultParams()
	p.Cores = 4
	p.LLCSize = 1 << 20
	p.MidSize = 4 * 1024 // small middle cache: 64 lines
	p.MidWays = 8
	return newEngineSys(t, p, hc)
}

func TestMidCachePromotionOnMiss(t *testing.T) {
	es := threeLevel(t, baseCfg())
	e, sys := es.e, es.sys
	l1 := sys.L1s[0]
	// Fill one L1 set (4 ways) + 1: the LRU line demotes to the middle
	// cache instead of leaving the tile.
	sets := l1.Array().Sets()
	for i := 0; i <= 4; i++ {
		access(t, e, sys, 0, mem.Line(100+i*sets), true)
		drain(e)
	}
	first := mem.Line(100)
	if st(sys, 0, first) != cache.Invalid {
		t.Fatal("victim still in L1")
	}
	me := l1.MidArray().Peek(first)
	if me == nil || me.State != cache.Modified || !me.Dirty {
		t.Fatalf("victim not demoted to mid: %+v", me)
	}
	// Re-access: promoted back from the middle cache, no directory trip.
	reqs := sys.Banks[first.Bank(sys.Cores)].Requests
	access(t, e, sys, 0, first, false)
	drain(e)
	if got := sys.Banks[first.Bank(sys.Cores)].Requests; got != reqs {
		t.Fatalf("mid promotion went to the directory (%d -> %d reqs)", reqs, got)
	}
	if l1.MidHits == 0 {
		t.Fatal("mid hit not counted")
	}
	if !st(sys, 0, first).Valid() {
		t.Fatal("promotion did not restore the L1 copy")
	}
	if me := l1.MidArray().Peek(first); me != nil {
		t.Fatal("line present in both L1 and mid (must be exclusive)")
	}
}

func TestMidCacheOddFlushOnForward(t *testing.T) {
	// The three-level odd design: a remote LOAD flushes the owner's L1
	// copy into the middle cache (the L1 loses the line).
	es := threeLevel(t, baseCfg())
	e, sys := es.e, es.sys
	access(t, e, sys, 0, 100, true)
	drain(e)
	access(t, e, sys, 1, 100, false)
	drain(e)
	if st(sys, 0, 100) != cache.Invalid {
		t.Fatalf("owner L1 state = %v, want flushed (Invalid)", st(sys, 0, 100))
	}
	me := sys.L1s[0].MidArray().Peek(100)
	if me == nil || me.State != cache.Shared {
		t.Fatalf("owner mid state = %+v, want Shared", me)
	}
	if got := st(sys, 1, 100); got != cache.Shared {
		t.Fatalf("requester state = %v", got)
	}
}

// TestMidCacheFlushAfterWayReuse: the forward's flush runs MidHit cycles
// after the forward hit the L1. If the owner's L1 reuses the line's way in
// that window, the line has moved to the middle cache, and the flush must
// answer from there; it must not demote or downgrade the way's new line.
func TestMidCacheFlushAfterWayReuse(t *testing.T) {
	p := DefaultParams()
	p.Cores = 4
	p.LLCSize = 1 << 20
	p.MidSize = 4 * 1024
	p.MidWays = 8
	p.MidHit = 200 // a window wide enough for a whole miss to complete in
	es := newEngineSys(t, p, baseCfg())
	e, sys := es.e, es.sys
	l1 := sys.L1s[0]
	sets := l1.Array().Sets()
	line := mem.Line(100)
	// Fill the set (4 ways) with line first, so it is the LRU way.
	for i := 0; i < 4; i++ {
		access(t, e, sys, 0, line+mem.Line(i*sets), true)
		drain(e)
	}
	forwards := func() (n uint64) {
		for _, c := range sys.fired[tblL1Fwd] {
			n += c
		}
		return n
	}
	before := forwards()
	sys.L1s[1].Access(line, false, func() {})
	for forwards() == before {
		if !e.Step() {
			t.Fatal("the read never forwarded to the owner")
		}
	}
	if st(sys, 0, line) != cache.Modified {
		t.Fatalf("precondition: the flush should be in flight with the line in the L1, state %v", st(sys, 0, line))
	}
	// The owner misses on a fifth line of the set: the victim is line's way.
	other := line + mem.Line(4*sets)
	access(t, e, sys, 0, other, true)
	if me := l1.MidArray().Peek(line); me == nil || me.State != cache.Modified {
		t.Fatalf("precondition: line should have moved to the middle cache, got %+v", me)
	}
	drain(e)
	if got := st(sys, 0, other); got != cache.Modified {
		t.Fatalf("the reused way's line %d is %v after the flush, want Modified", other, got)
	}
	if me := l1.MidArray().Peek(line); me == nil || me.State != cache.Shared {
		t.Fatalf("the flush should answer from the middle cache and leave it Shared, got %+v", me)
	}
	if got := st(sys, 1, line); got != cache.Shared {
		t.Fatalf("requester state = %v, want Shared", got)
	}
	checkSWMR(t, sys)
	checkDirConsistency(t, sys)
}

func TestMidCacheThreeLevelSlowerOnSharing(t *testing.T) {
	// Ping-pong a line between two cores: the three-level flush makes each
	// handover strictly slower — the reason the paper built two-level.
	measure := func(mid bool) uint64 {
		p := DefaultParams()
		p.Cores = 4
		p.LLCSize = 1 << 20
		if mid {
			p.MidSize, p.MidWays = 4*1024, 8
		}
		e := sim.NewEngine()
		sys := NewSystem(e, p, htm.Config{}.Defaults())
		for i := range sys.L1s {
			sys.L1s[i].SetClient(&testClient{})
		}
		start := e.Now()
		for i := 0; i < 50; i++ {
			core := i % 2
			done := false
			sys.L1s[core].Access(100, true, func() { done = true })
			for !done && e.Step() {
			}
		}
		return e.Now() - start
	}
	two := measure(false)
	three := measure(true)
	if three <= two {
		t.Fatalf("three-level (%d) should be slower than two-level (%d) on sharing", three, two)
	}
}

func TestMidCacheExpandsTxCapacity(t *testing.T) {
	// A transaction overflowing the 4-way L1 set survives in three-level
	// (demotes into the middle cache) where two-level would abort.
	es := threeLevel(t, baseCfg())
	e, sys, cl := es.e, es.sys, es.cl
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sets := sys.L1s[0].Array().Sets()
	for i := 0; i < 6; i++ {
		access(t, e, sys, 0, mem.Line(100+i*sets), true)
		drain(e)
	}
	if len(cl[0].dooms) != 0 {
		t.Fatalf("three-level aborted a tx the middle cache should hold: %v", cl[0].dooms)
	}
	r, w := 0, 0
	sys.L1s[0].MidArray().ForEach(func(en *cache.Entry) {
		if en.TxRead {
			r++
		}
		if en.TxWrite {
			w++
		}
	})
	if w == 0 {
		t.Fatal("no transactional lines demoted to mid")
	}
	sys.L1s[0].CommitTx()
	sys.L1s[0].Tx.Reset()
	drain(e)
}

func TestMidCacheAbortDropsSpeculativeMidLines(t *testing.T) {
	es := threeLevel(t, baseCfg())
	e, sys, _ := es.e, es.sys, es.cl
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sets := sys.L1s[0].Array().Sets()
	lines := make([]mem.Line, 6)
	for i := range lines {
		lines[i] = mem.Line(100 + i*sets)
		access(t, e, sys, 0, lines[i], true)
		drain(e)
	}
	sys.L1s[0].AbortLocal(htm.CauseFault)
	drain(e)
	for _, l := range lines {
		if st(sys, 0, l) != cache.Invalid {
			t.Fatalf("speculative L1 line %d survived abort", l)
		}
		if me := sys.L1s[0].MidArray().Peek(l); me != nil && me.State.Valid() {
			t.Fatalf("speculative mid line %d survived abort: %+v", l, me)
		}
		// All lines must be re-fetchable by others.
		access(t, e, sys, 1, l, false)
		drain(e)
	}
}

func TestMidCacheConflictDetectionInMid(t *testing.T) {
	// A conflicting request must find transactional data that lives only
	// in the middle cache.
	es := threeLevel(t, baseCfg())
	e, sys, cl := es.e, es.sys, es.cl
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sets := sys.L1s[0].Array().Sets()
	first := mem.Line(100)
	for i := 0; i < 5; i++ {
		access(t, e, sys, 0, mem.Line(100+i*sets), true)
		drain(e)
	}
	if me := sys.L1s[0].MidArray().Peek(first); me == nil || !me.TxWrite {
		t.Fatal("precondition: first line should be tx data in mid")
	}
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 1, first, false)
	drain(e)
	if len(cl[0].dooms) != 1 || cl[0].dooms[0] != htm.CauseMC {
		t.Fatalf("mid-resident conflict missed: dooms=%v", cl[0].dooms)
	}
}

func TestFuzzSWMRThreeLevel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fuzzSystemParams(t, threeLevelParams(), baseCfg(), seed, 800)
		})
	}
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("lockiller-seed%d", seed), func(t *testing.T) {
			fuzzSystemParams(t, threeLevelParams(), htmlockCfg(true), seed, 800)
		})
	}
}

func threeLevelParams() Params {
	p := DefaultParams()
	p.Cores = 4
	p.LLCSize = 32 * 1024
	p.LLCWays = 2
	p.MidSize = 4 * 1024
	p.MidWays = 8
	return p
}
