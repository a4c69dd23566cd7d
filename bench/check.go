package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/harness"
	"repro/internal/stats"
)

// goldenSeed is the seed whose digests golden.json pins.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// goldenFile is golden.json: per workload, the digest of every simulation
// a run at goldenSeed makes, keyed by harness.Spec.Key.
type goldenFile struct {
	Seed    uint64                       `json:"seed"`
	Digests map[string]map[string]string `json:"digests"`
}

// fig7GoldenCycles are the four Fig. 7 cells (intruder, 2 threads, typical
// cache, seed 1) that the repository's golden cycle matrix pins
// (goldenCycles in internal/harness/determinism_test.go). fig7-quick at
// seed 1 runs all four, so the benchmark re-checks them independently of
// golden.json.
var fig7GoldenCycles = map[string]uint64{
	"CGL":             1245702,
	"Baseline":        1015025,
	"LockillerTM-RWI": 1008516,
	"LockillerTM":     948544,
}

// digest hashes the architectural outcome of a run: the makespan, every
// traffic counter, and each core's cycle breakdown, transaction and section
// counts. EventsExecuted, FusedRuns and Transitions are left out: they
// describe how the engine got there and legitimately move with event
// fusion.
func digest(r *stats.Run) string {
	h := fnv.New64a()
	// Writes to a hash never fail, and every value written is fixed-size.
	_ = binary.Write(h, binary.LittleEndian, r.ExecCycles)
	_ = binary.Write(h, binary.LittleEndian, r.Traffic)
	for _, c := range r.Cores {
		_ = binary.Write(h, binary.LittleEndian, c.Cycles)
		_ = binary.Write(h, binary.LittleEndian, c.Aborts)
		_ = binary.Write(h, binary.LittleEndian, []uint64{
			c.Attempts, c.Commits, c.LockRuns, c.SwitchRuns, c.Sections, c.Barriers,
		})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// outcomeErr checks what a single result must satisfy on its own: every
// atomic section completed, and a golden-matrix cell has its pinned cycle
// count.
func outcomeErr(s harness.Spec, res *stats.Run) error {
	if got, want := res.Sections(), uint64(s.Workload.TotalSections); got != want {
		return fmt.Errorf("%s: %d sections completed, want %d", s.Key(), got, want)
	}
	want, ok := fig7GoldenCycles[s.System.Name]
	cell := ok && s.Workload.Name == "intruder" && s.Threads == 2 && s.Cache.Name == "typical" &&
		s.Cores == 0 && s.Seed == 1
	if cell && res.ExecCycles != want {
		return fmt.Errorf("%s: %d cycles, the golden matrix has %d", s.Key(), res.ExecCycles, want)
	}
	return nil
}

// checker decides whether each simulated result is correct: no error,
// outcomeErr passes, the digest equals every earlier repetition's, and at
// goldenSeed it equals golden.json's.
type checker struct {
	golden map[string]string     // nil unless the seed is goldenSeed
	seen   map[string]string     // key → digest of the first correct result
	first  map[string]*stats.Run // key → first result, correct or not
}

func newChecker(workload string, seed uint64) (*checker, error) {
	c := &checker{seen: map[string]string{}, first: map[string]*stats.Run{}}
	if seed != goldenSeed {
		return c, nil
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Seed != goldenSeed {
		return nil, fmt.Errorf("golden.json pins seed %d, want %d", g.Seed, goldenSeed)
	}
	c.golden = g.Digests[workload]
	if c.golden == nil {
		c.golden = map[string]string{} // every result will miss
	}
	return c, nil
}

// check returns why res is not a correct outcome of s, or nil.
func (c *checker) check(s harness.Spec, res *stats.Run, err error) error {
	k := s.Key()
	if _, ok := c.first[k]; !ok && res != nil {
		c.first[k] = res
	}
	if err != nil {
		return err
	}
	if err := outcomeErr(s, res); err != nil {
		return err
	}
	d := digest(res)
	prev, ok := c.seen[k]
	switch {
	case ok && prev != d:
		return fmt.Errorf("%s: digest %s differs from an earlier repetition's %s", k, d, prev)
	case c.golden != nil && c.golden[k] != d:
		return fmt.Errorf("%s: digest %s, golden.json has %q", k, d, c.golden[k])
	case !ok:
		c.seen[k] = d
	}
	return nil
}
