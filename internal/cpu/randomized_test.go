package cpu

import (
	"fmt"
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/priority"
	"repro/internal/sim"
)

// Randomized end-to-end stress: generate arbitrary programs (mixed reads,
// writes, RMWs, faults, compute, barriers, overflowing sets) and run them
// under randomly drawn system configurations. Every run must (a) complete
// without deadlock, (b) complete exactly the generated atomic sections,
// (c) keep every functional counter exact, and (d) be deterministic.
func randomProgram(rng *sim.RNG, threads int, counters []mem.Line) ([]Program, map[mem.Line]uint64) {
	expect := make(map[mem.Line]uint64)
	progs := make([]Program, threads)
	sets := 32 * 1024 / 64 / 4
	barriers := rng.Intn(3)
	sections := 8 + rng.Intn(16)
	for th := 0; th < threads; th++ {
		var p Sections
		for s := 0; s < sections; s++ {
			if barriers > 0 && s > 0 && s%(sections/(barriers+1)+1) == 0 {
				p = append(p, BarrierSection())
			}
			var ops []Op
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2:
					ops = append(ops, Read(mem.Line(1<<20+rng.Intn(128))))
				case 3, 4:
					ops = append(ops, Write(mem.Line(1<<20+rng.Intn(128))))
				case 5, 6:
					c := counters[rng.Intn(len(counters))]
					ops = append(ops, RMW(c))
					expect[c]++
				case 7:
					ops = append(ops, Compute(uint64(1+rng.Intn(40))))
				case 8:
					if rng.Bool(0.3) {
						ops = append(ops, Fault())
					} else {
						ops = append(ops, Compute(5))
					}
				case 9:
					// A burst mapping to one L1 set: overflow pressure.
					base := 1<<22 + th*8192 + rng.Intn(4)
					for j := 0; j < 5; j++ {
						ops = append(ops, Write(mem.Line(base+j*sets)))
					}
				}
			}
			p = append(p, AtomicStatic(ops), Plain([]Op{Compute(uint64(5 + rng.Intn(30)))}))
		}
		progs[th] = p
	}
	return progs, expect
}

func randomConfig(rng *sim.RNG) (SyncSystem, htm.Config) {
	if rng.Bool(0.15) {
		return SysCGL, htm.Config{}.Defaults()
	}
	hc := htm.Config{MaxRetries: 1 + rng.Intn(8)}
	switch rng.Intn(4) {
	case 1:
		hc.Conflict = htm.Recovery{Policy: htm.RejectPolicy(rng.Intn(3))}
		hc.Priority = priority.InstsBased{}
	case 2:
		hc.Conflict = htm.Recovery{Policy: htm.WaitWakeup}
		hc.Priority = priority.InstsBased{}
		hc.HTMLock = true
	case 3:
		hc.Conflict = htm.Recovery{Policy: htm.RejectPolicy(rng.Intn(3))}
		hc.Overflow = htm.SwitchOverflow{}
		hc.Priority = priority.Progression{}
		hc.HTMLock = true
	}
	return SysHTM, hc.Defaults()
}

func TestRandomizedEndToEnd(t *testing.T) {
	counters := []mem.Line{1 << 23, 1<<23 + 1, 1<<23 + 2}
	for trial := uint64(1); trial <= 25; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := sim.NewRNG(trial * 7919)
			threads := 2 + rng.Intn(3)
			progs, expect := randomProgram(rng, threads, counters)
			sync, hc := randomConfig(rng)

			p := smallParams()
			if rng.Bool(0.3) {
				p.MidSize, p.MidWays = 4*1024, 8 // three-level organization
			}
			if rng.Bool(0.3) {
				p.L1Size = 8 * 1024 // small-cache pressure
			}
			cfg := Config{Machine: p, HTM: hc, Sync: sync, Threads: threads, Seed: trial}
			run := func() (*Machine, uint64) {
				m := NewMachine(cfg, "rand", "stress", progs)
				r, err := m.Run()
				if err != nil {
					t.Fatalf("config %+v: %v", hc, err)
				}
				return m, r.ExecCycles
			}
			m, cycles := run()

			var wantSections uint64
			for _, pr := range progs {
				wantSections += uint64(CountAtomic(pr))
			}
			if got := m.Stats.Sections(); got != wantSections {
				t.Fatalf("completed %d sections, want %d", got, wantSections)
			}
			for c, want := range expect {
				if got := m.CounterValue(c); got != want {
					t.Fatalf("counter %d = %d, want %d (atomicity violated)", c, got, want)
				}
			}
			// Determinism.
			if _, cycles2 := run(); cycles2 != cycles {
				t.Fatalf("non-deterministic: %d vs %d cycles", cycles, cycles2)
			}
		})
	}
}
