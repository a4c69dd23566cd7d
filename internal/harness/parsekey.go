package harness

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/stamp"
)

// ParseKey parses a memo key (Spec.Key) back into the Spec that produced
// it. Keys are the durable identity of persisted results, so loading
// validates every stored key parses AND round-trips (parsed.Key() == key):
// a key that references an unknown system, workload, or cache name — or
// carries suffixes in a non-canonical order — comes from a different build
// of the matrix and must not be served as a current result.
//
// ParseKey does not recover the runner-internal defaults a key omits; the
// returned Spec reproduces exactly the key it was parsed from. Keys written
// by the removed sharded engine carry a |parN suffix; they are rejected with
// an error naming that cause, not as an unknown suffix.
func ParseKey(key string) (Spec, error) {
	parts := strings.Split(key, "|")
	if len(parts) < 5 {
		return Spec{}, fmt.Errorf("harness: key %q: want at least system|workload|threads|cache|seed", key)
	}
	sys, err := SystemByName(parts[0])
	if err != nil {
		return Spec{}, fmt.Errorf("harness: key %q: %w", key, err)
	}
	wl, err := stamp.ByName(parts[1])
	if err != nil {
		return Spec{}, fmt.Errorf("harness: key %q: %w", key, err)
	}
	threads, err := strconv.Atoi(parts[2])
	if err != nil || threads <= 0 {
		return Spec{}, fmt.Errorf("harness: key %q: bad thread count %q", key, parts[2])
	}
	var cache CacheConfig
	switch parts[3] {
	case TypicalCache().Name:
		cache = TypicalCache()
	case SmallCache().Name:
		cache = SmallCache()
	case LargeCache().Name:
		cache = LargeCache()
	default:
		return Spec{}, fmt.Errorf("harness: key %q: unknown cache config %q", key, parts[3])
	}
	seed, err := strconv.ParseUint(parts[4], 10, 64)
	if err != nil {
		return Spec{}, fmt.Errorf("harness: key %q: bad seed %q", key, parts[4])
	}
	s := Spec{System: sys, Workload: wl, Threads: threads, Cache: cache, Seed: seed}
	for _, p := range parts[5:] {
		switch {
		case p == "nofuse":
			s.DisableFusion = true
		case strings.HasPrefix(p, "par"):
			return Spec{}, fmt.Errorf("harness: key %q: suffix %q is from the sharded engine, which was removed; re-run the spec", key, p)
		case strings.HasPrefix(p, "cores"):
			if s.Cores, err = atoiPositive(p[len("cores"):]); err != nil {
				return Spec{}, fmt.Errorf("harness: key %q: bad suffix %q", key, p)
			}
		case strings.HasPrefix(p, "topo"):
			s.Topo = p[len("topo"):]
			if s.Topo == "" {
				return Spec{}, fmt.Errorf("harness: key %q: empty topo suffix", key)
			}
		case strings.HasPrefix(p, "grid"):
			w, h, ok := strings.Cut(p[len("grid"):], "x")
			if !ok {
				return Spec{}, fmt.Errorf("harness: key %q: bad suffix %q", key, p)
			}
			if s.MeshW, err = atoiPositive(w); err != nil {
				return Spec{}, fmt.Errorf("harness: key %q: bad suffix %q", key, p)
			}
			if s.MeshH, err = atoiPositive(h); err != nil {
				return Spec{}, fmt.Errorf("harness: key %q: bad suffix %q", key, p)
			}
		case strings.HasPrefix(p, "cl"):
			if s.ClusterSize, err = atoiPositive(p[len("cl"):]); err != nil {
				return Spec{}, fmt.Errorf("harness: key %q: bad suffix %q", key, p)
			}
		default:
			return Spec{}, fmt.Errorf("harness: key %q: unknown suffix %q", key, p)
		}
	}
	return s, nil
}

func atoiPositive(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("non-positive %d", n)
	}
	return n, nil
}
