package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/stamp"
)

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
}

// TestMachineParamsOverrides checks the spec-to-machine resolution: the
// Table I defaults plus the scaling overrides.
func TestMachineParamsOverrides(t *testing.T) {
	s := Spec{Cache: TypicalCache()}
	if p := s.MachineParams(); p != coherence.DefaultParams() {
		t.Fatalf("no-override params changed: %+v", p)
	}
	s.Cores, s.Topo, s.ClusterSize = 256, "torus", 16
	p := s.MachineParams()
	if p.Cores != 256 || p.Topo != "torus" || p.ClusterSize != 16 {
		t.Fatalf("torus params = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpecValidate rejects the machine shapes lockillersim used to die on
// with a panic, named by the flags that produced them, and accepts the
// shapes the CLIs and the scaling sweep build.
func TestSpecValidate(t *testing.T) {
	base := Spec{System: mustSystem("LockillerTM"), Workload: stamp.Intruder(), Threads: 2, Cache: TypicalCache()}
	for _, c := range []struct {
		name     string
		mod      func(*Spec)
		wantFail string // "" for a valid shape, else a substring of the error
	}{
		{"-threads 0", func(s *Spec) { s.Threads = 0 }, "0 threads on 32 cores"},
		{"-threads 40", func(s *Spec) { s.Threads = 40 }, "40 threads on 32 cores"},
		{"-cores 48", func(s *Spec) { s.Cores = 48 }, "does not split evenly across 48 banks"},
		{"-cores 2000", func(s *Spec) { s.Cores = 2000 }, "unsupported core count 2000"},
		{"-cores 30 -topo cmesh", func(s *Spec) { s.Cores, s.Topo = 30, "cmesh" }, "30 tiles"},
		{"-cores 64 -cluster 7", func(s *Spec) { s.Cores, s.ClusterSize = 64, 7 }, "cluster size 7"},
		{"-topo ring", func(s *Spec) { s.Topo = "ring" }, "unknown kind"},
		{"defaults", func(s *Spec) {}, ""},
		{"-threads 32", func(s *Spec) { s.Threads = 32 }, ""},
		{"-topo torus -cluster 8", func(s *Spec) { s.Topo, s.ClusterSize = "torus", 8 }, ""},
		{"-cores 64 -topo cmesh", func(s *Spec) { s.Cores, s.Topo = 64, "cmesh" }, ""},
		{"-cores 128 -cluster 16", func(s *Spec) { s.Cores, s.ClusterSize = 128, 16 }, ""},
		{"scaling 1024 cmesh", func(s *Spec) { *s = ScalingSpec(s.System, s.Workload, 1024); s.Topo = "cmesh" }, ""},
	} {
		s := base
		c.mod(&s)
		err := s.Validate()
		switch {
		case c.wantFail == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantFail != "" && (err == nil || !strings.Contains(err.Error(), c.wantFail)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantFail)
		}
	}
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
