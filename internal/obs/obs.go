// Package obs is the host-side observability layer: structured run
// ledgers, sweep progress streaming, and the engine self-profiler.
//
// Everything in this package measures the *host* — wall-clock time,
// allocator pressure, dispatch time — never the simulated machine.
// The simulated-time story lives in internal/telemetry; the two layers are
// deliberately disjoint so that observing a run can never perturb it. Two
// invariants keep the boundary sound:
//
//   - obs is a leaf package (stdlib only). Deterministic packages may
//     import it for the EngineProbe interface, but obs never imports them,
//     so no host state can flow back into model code.
//   - obs is the only package allowed to read the wall clock. The
//     lockillerlint `hostclock` analyzer enforces that `time.Now` (and its
//     siblings) appear nowhere else, and `tracehook` that every
//     EngineProbe callsite outside obs is nil-guarded, so the disabled path
//     stays a pointer test.
//
// Host-derived values (wall times, MemStats deltas) are tagged `obs:"host"`
// in the ledger schema and can be zeroed with Record.Redacted, leaving a
// byte-stable record for diff-based determinism tests.
package obs

import (
	"runtime"
	"time"
)

// Timer measures host wall time from a fixed start. It wraps the monotonic
// clock reading so callers outside this package never touch time.Now
// directly (the hostclock lint rule).
type Timer struct {
	start time.Time
}

// StartTimer begins a wall-clock measurement.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed returns the wall time since the timer started. The Go runtime
// backs this with the monotonic clock, so it is immune to wall-clock steps.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }

// MemSnapshot captures runtime allocator counters at one instant; Delta
// subtracts a snapshot from the current state to get a per-run reading.
// ReadMemStats stops the world briefly, so snapshots belong at run
// boundaries, never inside the event loop.
type MemSnapshot struct {
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
}

// TakeMemSnapshot reads the allocator counters now.
func TakeMemSnapshot() MemSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemSnapshot{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC}
}

// MemDelta is the allocator activity between two snapshots, plus the
// current live-heap size at the later one.
type MemDelta struct {
	// TotalAllocBytes and Mallocs are cumulative counters, so their deltas
	// are exact per-interval figures even across garbage collections.
	TotalAllocBytes uint64
	Mallocs         uint64
	// GCCycles is the number of collections completed in the interval.
	GCCycles uint32
	// HeapAllocBytes is the live heap at measurement time (not a delta:
	// the "peak pressure" proxy the ledger records).
	HeapAllocBytes uint64
}

// Delta returns the allocator activity since the snapshot was taken.
func (s MemSnapshot) Delta() MemDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemDelta{
		TotalAllocBytes: ms.TotalAlloc - s.totalAlloc,
		Mallocs:         ms.Mallocs - s.mallocs,
		GCCycles:        ms.NumGC - s.numGC,
		HeapAllocBytes:  ms.HeapAlloc,
	}
}
