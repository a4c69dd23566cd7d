package htm

import "math/bits"

// WakeSet is a wake-up table of the recovery mechanism (the green shaded
// table of the paper's Fig. 2): the set of cores whose requests this cache
// (or the HTMLock arbiter) rejected and that must be woken when the local
// transaction commits or aborts. It is a CoreSet plus the snapshot Drain
// wakes from.
type WakeSet struct {
	CoreSet
	scratch []uint64 // drain snapshot of ext, reused across drains
}

// Drain invokes fn for every pending core in ascending order and clears the
// set. This is the commit/abort-time table scan of paper §III-A. The whole
// set is snapshotted before the first fn call, so cores fn re-adds are kept
// for the next drain rather than woken twice in this one.
func (w *WakeSet) Drain(fn func(core int)) {
	b := w.w0
	w.scratch = append(w.scratch[:0], w.ext...)
	w.Clear()
	drainWord(b, 0, fn)
	for i, v := range w.scratch {
		drainWord(v, (i+1)*64, fn)
	}
}

func drainWord(b uint64, base int, fn func(core int)) {
	for b != 0 {
		c := bits.TrailingZeros64(b)
		fn(base + c)
		b &^= 1 << uint(c)
	}
}
