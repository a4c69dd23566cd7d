package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/stamp"
)

// TestGridFor pins the derived grids of the scaling sweep (DESIGN.md §13).
func TestGridFor(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{8, 2, 4}, {32, 4, 8}, {64, 8, 8}, {128, 8, 16},
		{256, 16, 16}, {512, 16, 32}, {1024, 32, 32},
	}
	for _, c := range cases {
		if w, h := GridFor(c.n); w != c.w || h != c.h {
			t.Errorf("GridFor(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

// TestSpecKeyScalingSuffixOnly guards memo-key compatibility: a spec with
// no scaling overrides must produce exactly the pre-scaling key (persisted
// result files stay valid), and overrides may only append to it.
func TestSpecKeyScalingSuffixOnly(t *testing.T) {
	s := Spec{System: mustSystem("Baseline"), Workload: stamp.Intruder(),
		Threads: 8, Cache: TypicalCache(), Seed: 1}
	base := s.key()
	if want := "Baseline|intruder|8|typical|1"; base != want {
		t.Fatalf("default-shape key = %q, want %q", base, want)
	}
	s.Cores, s.Topo, s.ClusterSize = 256, "torus", 16
	scaled := s.key()
	if !strings.HasPrefix(scaled, base) {
		t.Fatalf("scaling overrides must extend the key as a suffix: %q vs %q", scaled, base)
	}
	if scaled == base {
		t.Fatal("scaling overrides must be key-affecting")
	}
	s.MeshW, s.MeshH = 16, 16
	if grid := s.key(); grid == scaled || !strings.HasPrefix(grid, base) {
		t.Fatalf("explicit grid must be key-affecting and keep the base prefix: %q vs %q", grid, scaled)
	}
}

// TestMachineParamsOverrides checks the spec-to-machine resolution:
// derived grids, cmesh concentration, and explicit-grid precedence.
func TestMachineParamsOverrides(t *testing.T) {
	s := Spec{Cache: TypicalCache()}
	if p := s.MachineParams(); p.Cores != 32 || p.MeshW != 4 || p.MeshH != 8 || p.Topo != "" {
		t.Fatalf("no-override params changed: %+v", p)
	}
	s.Cores = 256
	if p := s.MachineParams(); p.MeshW != 16 || p.MeshH != 16 {
		t.Fatalf("256-core grid = %dx%d, want 16x16", p.MeshW, p.MeshH)
	}
	s.Topo = "cmesh"
	if p := s.MachineParams(); p.Conc != 4 || p.MeshW*p.MeshH*p.Conc != 256 {
		t.Fatalf("cmesh params = %+v, want 4 tiles per router over 256 cores", p)
	}
	s.MeshW, s.MeshH = 8, 16
	if p := s.MachineParams(); p.MeshW != 8 || p.MeshH != 16 || p.Conc != 2 {
		t.Fatalf("explicit cmesh grid = %+v, want 8x16 with conc 2", p)
	}
	s.Topo, s.MeshW, s.MeshH = "torus", 0, 0
	s.ClusterSize = 16
	p := s.MachineParams()
	if p.Topo != "torus" || p.ClusterSize != 16 || p.Conc != 0 {
		t.Fatalf("torus params = %+v", p)
	}
	p.Validate()
}

// TestScaling256Deterministic runs a 256-core, two-level-directory machine
// on one workload per system class — lock-based (CGL), plain best-effort
// HTM (Baseline), and the full proposal (LockillerTM) — twice each, and
// requires the two runs to be identical. This is the scaled counterpart of
// the golden-matrix determinism tests; CI's nightly job runs it under
// -race.
func TestScaling256Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("256-core runs are not -short tests")
	}
	for _, name := range []string{"CGL", "Baseline", "LockillerTM"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := Spec{System: mustSystem(name), Workload: stamp.Intruder(),
				Threads: 16, Cache: TypicalCache(), Seed: 1,
				Cores: 256, ClusterSize: 16}
			first, err := Execute(spec)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := Execute(spec)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("256-core stats.Run diverged between same-seed runs\nfirst : %+v\nsecond: %+v", first, second)
			}
		})
	}
}
