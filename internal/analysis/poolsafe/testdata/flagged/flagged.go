// Package coherence is a poolsafe fixture: every flow below violates the
// pooled-object ownership rules and must be flagged. The types mirror the
// real message pool (fixtures are self-contained).
package coherence

// Msg is a pooled protocol message.
type Msg struct {
	Line     uint64
	recycled bool
}

// System owns the message free list.
type System struct {
	msgFree []*Msg
}

func (s *System) alloc() *Msg {
	if n := len(s.msgFree); n > 0 {
		m := s.msgFree[n-1]
		s.msgFree = s.msgFree[:n-1]
		return m
	}
	return new(Msg)
}

func (s *System) free(m *Msg) {
	if m.recycled {
		panic("double free")
	}
	m.recycled = true
	s.msgFree = append(s.msgFree, m)
}

// finish is a helper that forwards its parameter to the sink: callers lose
// ownership exactly as if they had called free directly.
func (s *System) finish(m *Msg) {
	s.free(m)
}

// useAfterFree reads a field after releasing the message.
func useAfterFree(s *System) uint64 {
	m := s.alloc()
	m.Line = 7
	s.free(m)
	return m.Line // want `use of m after it was freed`
}

// doubleFree releases the same message twice.
func doubleFree(s *System) {
	m := s.alloc()
	s.free(m)
	s.free(m) // want `double free of m`
}

// helperThenUse loses ownership through the helper, then reads anyway.
func helperThenUse(s *System) uint64 {
	m := s.alloc()
	s.finish(m)
	return m.Line // want `use of m after it was freed`
}

// branchFree frees on one path and uses on the joined path: the use is a
// bug whenever the branch was taken.
func branchFree(s *System, drop bool) uint64 {
	m := s.alloc()
	if drop {
		s.free(m)
	}
	return m.Line // want `use of m after it was freed`
}

// storeAfterFree writes through the released pointer, corrupting whoever
// holds the recycled object next.
func storeAfterFree(s *System) {
	m := s.alloc()
	s.free(m)
	m.Line = 9 // want `use of m after it was freed`
}

// deepHelperThenUse loses ownership two helpers deep. retire is declared
// before the release it forwards to, so one pass in declaration order
// misses it; only the summary fixpoint finds the release.
func deepHelperThenUse(s *System) uint64 {
	m := s.alloc()
	s.retire(m)
	return m.Line // want `use of m after it was freed`
}

func (s *System) retire(m *Msg) { s.release(m) }

func (s *System) release(m *Msg) { s.free(m) }

// midCtx and midFlush are the middle cache's pooled event payloads.
type midCtx struct {
	line uint64
	done func()
}

type midFlush struct {
	m Msg
}

// L1 owns the payload free lists.
type L1 struct {
	midCtxFree   []*midCtx
	midFlushFree []*midFlush
}

func (l1 *L1) freeMidCtx(c *midCtx) {
	*c = midCtx{}
	l1.midCtxFree = append(l1.midCtxFree, c)
}

func (l1 *L1) freeMidFlush(f *midFlush) {
	l1.midFlushFree = append(l1.midFlushFree, f)
}

// promoteAfterFree reads the promote payload after recycling it instead
// of copying it first: the next promote overwrites the fields.
func promoteAfterFree(l1 *L1, c *midCtx) uint64 {
	l1.freeMidCtx(c)
	return c.line // want `use of c after it was freed`
}

// flushAfterFree answers the forward from a recycled flush payload.
func flushAfterFree(l1 *L1, f *midFlush) uint64 {
	l1.freeMidFlush(f)
	return f.m.Line // want `use of f after it was freed`
}
