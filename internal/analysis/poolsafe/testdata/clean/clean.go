// Package coherence is a poolsafe fixture: every flow below respects the
// ownership rules and must NOT be flagged.
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
	m.recycled = true
	s.msgFree = append(s.msgFree, m)
}

// inspect reads its argument but does not release it: callers keep
// ownership (no false helper summary).
func (s *System) inspect(m *Msg) uint64 {
	return m.Line
}

// useThenFree is the normal consume pattern: the free is the last touch.
func useThenFree(s *System) uint64 {
	m := s.alloc()
	line := m.Line
	s.free(m)
	return line
}

// reassigned rebinds the name to a fresh allocation after the free.
func reassigned(s *System) uint64 {
	m := s.alloc()
	s.free(m)
	m = s.alloc()
	return m.Line
}

// terminatedBranch frees only on a path that returns: the fall-through
// still owns the message.
func terminatedBranch(s *System, drop bool) uint64 {
	m := s.alloc()
	if drop {
		s.free(m)
		return 0
	}
	line := m.Line
	s.free(m)
	return line
}

// helperKeepsOwnership passes through a non-freeing helper and continues.
func helperKeepsOwnership(s *System) uint64 {
	m := s.alloc()
	_ = s.inspect(m)
	line := m.Line
	s.free(m)
	return line
}

// waived documents an intentionally unusual flow.
func waived(s *System) uint64 {
	m := s.alloc()
	s.free(m)
	//lockiller:pool-ok reading the recycled flag is the point of this diagnostic probe
	return m.Line
}

// midCtx is a middle-cache promote payload, pooled per L1.
type midCtx struct {
	line uint64
}

// L1 owns the payload free list.
type L1 struct {
	midCtxFree []*midCtx
}

func (l1 *L1) freeMidCtx(c *midCtx) {
	*c = midCtx{}
	l1.midCtxFree = append(l1.midCtxFree, c)
}

// copyThenFree is the payload pattern: copy the record, recycle it, then
// work from the copy.
func copyThenFree(l1 *L1, p *midCtx) uint64 {
	c := *p
	l1.freeMidCtx(p)
	return c.line
}
