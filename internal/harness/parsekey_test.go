package harness

import (
	"strings"
	"testing"

	"repro/internal/stamp"
)

// TestParseKeyRoundTrip generates specs across every key-affecting
// dimension and asserts ParseKey inverts Spec.Key exactly.
func TestParseKeyRoundTrip(t *testing.T) {
	base := Spec{System: mustSystem("LockillerTM"), Workload: stamp.Intruder(),
		Threads: 8, Cache: TypicalCache(), Seed: 42}
	variants := []func(*Spec){
		func(*Spec) {},
		func(s *Spec) { s.System = mustSystem("CGL"); s.Workload = stamp.VacationHigh() },
		func(s *Spec) { s.Cache = SmallCache(); s.Seed = 1 },
		func(s *Spec) { s.DisableFusion = true },
		func(s *Spec) { s.DisableFusion = true; s.Cores = 128 },
		func(s *Spec) { s.Cores = 64; s.Topo = "torus" },
		func(s *Spec) { s.Topo = "cmesh"; s.ClusterSize = 8 },
		func(s *Spec) { s.MeshW, s.MeshH = 8, 16 },
		func(s *Spec) {
			s.DisableFusion = true
			s.Cores, s.Topo, s.MeshW, s.MeshH, s.ClusterSize = 256, "mesh", 16, 16, 4
		},
	}
	for i, v := range variants {
		s := base
		v(&s)
		key := s.Key()
		parsed, err := ParseKey(key)
		if err != nil {
			t.Errorf("variant %d: ParseKey(%q): %v", i, key, err)
			continue
		}
		if got := parsed.Key(); got != key {
			t.Errorf("variant %d: round trip %q -> %q", i, key, got)
		}
	}
}

func TestParseKeyRejects(t *testing.T) {
	bad := []string{
		"",
		"CGL|intruder|2|typical",                  // too few parts
		"NoSuchSystem|intruder|2|typical|1",       // unknown system
		"CGL|nosuchworkload|2|typical|1",          // unknown workload
		"CGL|intruder|zero|typical|1",             // non-numeric threads
		"CGL|intruder|0|typical|1",                // non-positive threads
		"CGL|intruder|2|gigantic|1",               // unknown cache config
		"CGL|intruder|2|typical|minusone",         // bad seed
		"CGL|intruder|2|typical|1|bogus",          // unknown suffix
		"CGL|intruder|2|typical|1|topo",           // empty topo
		"CGL|intruder|2|typical|1|grid8",          // malformed grid
		"CGL|intruder|2|typical|1|cores-4",        // negative cores
		"CGL|intruder|2|typical|1|clx",            // non-numeric cluster
	}
	for _, key := range bad {
		if _, err := ParseKey(key); err == nil {
			t.Errorf("ParseKey accepted %q", key)
		}
	}
	// Keys from the removed sharded engine fail with their own message, not
	// the generic unknown-suffix one.
	for _, key := range []string{"CGL|intruder|2|typical|1|par2", "CGL|intruder|2|typical|1|nofuse|par4|cores64"} {
		_, err := ParseKey(key)
		if err == nil || !strings.Contains(err.Error(), "sharded engine, which was removed") {
			t.Errorf("ParseKey(%q) = %v, want the removed-engine error", key, err)
		}
	}
	// Out-of-canonical-order suffixes parse (the loop is order-blind) but
	// fail the round-trip check Load applies.
	key := "CGL|intruder|2|typical|1|cores64|nofuse"
	s, err := ParseKey(key)
	if err != nil {
		t.Fatalf("ParseKey(%q): %v", key, err)
	}
	if s.Key() == key {
		t.Fatalf("non-canonical key %q unexpectedly round-tripped", key)
	}
}
