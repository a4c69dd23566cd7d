// Package cpu models the in-order, single-issue cores of the simulated CMP
// (Table I) and the transactional programs they run: per-thread sequences
// of atomic sections, non-transactional work, and barriers, executed under
// one of the evaluated synchronization systems (CGL, best-effort HTM, or a
// LockillerTM variant).
package cpu

import "repro/internal/mem"

// OpKind is the kind of one dynamic operation.
type OpKind uint8

const (
	// OpCompute retires N non-memory instructions (N cycles on the 1-IPC
	// in-order core).
	OpCompute OpKind = iota
	// OpRead loads from a line.
	OpRead
	// OpWrite stores to a line.
	OpWrite
	// OpFault raises an exception (yada's transaction-killing events); in
	// speculative mode it aborts the transaction, in non-speculative modes
	// it costs the machine's fault penalty and continues.
	OpFault
	// OpRMW atomically increments a functional counter at a line: a load,
	// then a store, with the new value staged speculatively and applied at
	// commit. Counters let tests verify end-to-end atomicity — if the
	// protocol ever allowed two transactions to read the same value and
	// both commit, the final count would come up short (a lost update).
	OpRMW
)

// Op is one dynamic operation of a thread program.
type Op struct {
	Kind OpKind
	Line mem.Line
	N    uint64 // compute amount for OpCompute
}

// Read, Write, Compute, Fault, and RMW are convenience constructors.
func Read(l mem.Line) Op  { return Op{Kind: OpRead, Line: l} }
func Write(l mem.Line) Op { return Op{Kind: OpWrite, Line: l} }
func Compute(n uint64) Op { return Op{Kind: OpCompute, N: n} }
func Fault() Op           { return Op{Kind: OpFault} }
func RMW(l mem.Line) Op   { return Op{Kind: OpRMW, Line: l} }

// SectionKind is the kind of one step of a thread program.
type SectionKind uint8

const (
	// SecPlain is non-transactional work.
	SecPlain SectionKind = iota
	// SecAtomic is a critical section, executed as a transaction (or under
	// the global lock for CGL), whose body is the same on every attempt.
	SecAtomic
	// SecDynamic is a critical section whose body is drawn again on every
	// attempt: dynamic workloads (labyrinth) re-read shared state after an
	// abort and may take a different path.
	SecDynamic
	// SecBarrier is a whole-program synchronization point.
	SecBarrier
)

// Atomic reports whether the section is a critical section.
func (k SectionKind) Atomic() bool { return k == SecAtomic || k == SecDynamic }

// Program is a thread's instruction stream: a fixed sequence of sections
// whose operations are produced on demand. A core asks for a section's
// operations when it reaches the section, and for a SecDynamic body again
// on every attempt, into one buffer it owns. A Program is read-only —
// AppendOps is a pure function of (i, attempt) — so one Program can be
// shared by machines running at the same time.
type Program interface {
	// Len returns the number of sections.
	Len() int
	// Kind returns the kind of section i.
	Kind(i int) SectionKind
	// AppendOps appends section i's operations to buf and returns the
	// extended slice. attempt (from 1) selects a SecDynamic section's body;
	// the other kinds ignore it. A barrier has no operations.
	AppendOps(buf []Op, i, attempt int) []Op
}

// Section is one stored step of a Sections program.
type Section struct {
	Kind SectionKind
	// Ops are the operations of a plain or SecAtomic section.
	Ops []Op
	// Body returns a SecDynamic section's operations for one attempt.
	Body func(attempt int) []Op
}

// AtomicStatic builds an atomic section with a static body.
func AtomicStatic(ops []Op) Section { return Section{Kind: SecAtomic, Ops: ops} }

// AtomicDynamic builds an atomic section whose body is regenerated per
// attempt.
func AtomicDynamic(body func(attempt int) []Op) Section {
	return Section{Kind: SecDynamic, Body: body}
}

// Plain builds a non-atomic section.
func Plain(ops []Op) Section { return Section{Kind: SecPlain, Ops: ops} }

// BarrierSection builds a barrier.
func BarrierSection() Section { return Section{Kind: SecBarrier} }

// Sections is a materialized Program: every section stored, as hand-built
// and imported programs are.
type Sections []Section

// Len implements Program.
func (s Sections) Len() int { return len(s) }

// Kind implements Program.
func (s Sections) Kind(i int) SectionKind { return s[i].Kind }

// AppendOps implements Program.
func (s Sections) AppendOps(buf []Op, i, attempt int) []Op {
	if s[i].Kind == SecDynamic {
		return append(buf, s[i].Body(attempt)...)
	}
	return append(buf, s[i].Ops...)
}

// CountAtomic returns the number of atomic sections, used by tests to
// check conservation (every section completes exactly once regardless of
// the synchronization system).
func CountAtomic(p Program) int {
	n := 0
	for i := 0; i < p.Len(); i++ {
		if p.Kind(i).Atomic() {
			n++
		}
	}
	return n
}
