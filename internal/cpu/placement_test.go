package cpu

import "testing"

func TestMapThreads(t *testing.T) {
	packed := mapThreads(PlacePacked, 4, 32)
	for i, c := range packed {
		if c != i {
			t.Fatalf("packed[%d] = %d", i, c)
		}
	}
	spread := mapThreads(PlaceSpread, 4, 32)
	want := []int{0, 8, 16, 24}
	for i, c := range spread {
		if c != want[i] {
			t.Fatalf("spread = %v, want %v", spread, want)
		}
	}
	// Full occupancy: both map 1:1.
	full := mapThreads(PlaceSpread, 32, 32)
	seen := map[int]bool{}
	for _, c := range full {
		if c < 0 || c >= 32 || seen[c] {
			t.Fatalf("spread full occupancy broken: %v", full)
		}
		seen[c] = true
	}
}

func TestPlacementChangesTiming(t *testing.T) {
	progs := counterProgram(4, 40, 4096)
	runWith := func(pl Placement) uint64 {
		cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM,
			Threads: 4, Seed: 5, Placement: pl}
		// smallParams has 4 cores; use the default 32-core machine so the
		// placements actually differ.
		cfg.Machine.Cores = 32
		cfg.Machine.LLCSize = 8 << 20
		r := run(t, cfg, progs)
		return r.ExecCycles
	}
	packed := runWith(PlacePacked)
	spread := runWith(PlaceSpread)
	if packed == spread {
		t.Fatal("placement had no timing effect (NoC distances not modeled?)")
	}
	// Both complete the same work.
}
