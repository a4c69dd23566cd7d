package stamp

import (
	"hash/fnv"
	"testing"

	"repro/internal/cpu"
	"repro/internal/htm"
)

// exportDigests pins every op stream Programs generates: the FNV-64a digest
// of cpu.ExportPrograms' JSON for each profile at 2, 8 and 32 threads and
// seeds 1 and 3, with one body per attempt up to the default retry budget
// plus the fallback run. The digests were recorded when programs were still
// stored whole, so any generator refactor must reproduce them bit for bit.
var exportDigests = map[string]uint64{
	"genome":    0xf589620b45594535,
	"intruder":  0x41daa3ab9908d6b6,
	"kmeans":    0xfa63ca3f8db3a72a,
	"kmeans+":   0x19e4215874c1fad2,
	"labyrinth": 0x00878bc6786e0df5,
	"ssca2":     0x3fce759335adfa7a,
	"vacation":  0xe690067f71e48e85,
	"vacation+": 0x200ca12b598a8631,
	"yada":      0x3cd965a1f51b38ef,
}

func TestProgramExportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("exports ~0.5 GB of JSON; run without -short")
	}
	attempts := htm.Config{}.Defaults().MaxRetries + 1
	for _, p := range Workloads() {
		h := fnv.New64a()
		for _, threads := range []int{2, 8, 32} {
			for _, seed := range []uint64{1, 3} {
				if err := cpu.ExportPrograms(h, Programs(p, threads, seed), attempts); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := h.Sum64(), exportDigests[p.Name]; got != want {
			t.Errorf("%s: export digest %#016x, want %#016x", p.Name, got, want)
		}
	}
}
