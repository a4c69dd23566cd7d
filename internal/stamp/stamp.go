// Package stamp provides synthetic transactional workload generators that
// reproduce the transactional profile of each STAMP benchmark the paper
// evaluates (Minh et al., IISWC'08): transaction length, read/write-set
// size, contention level, time spent inside transactions, capacity-
// overflow pressure, and (for yada) exception rate. The paper's evaluation
// never inspects program output — only transactional behaviour — so
// profile-faithful generators exercise exactly the code paths the
// mechanisms were built for (see DESIGN.md, Substitutions).
package stamp

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Profile parameterizes one benchmark's transactional behaviour.
type Profile struct {
	Name string

	// TotalSections is the total number of atomic sections across all
	// threads (strong scaling: more threads, fewer sections each).
	TotalSections int

	// Transaction shape: mean read/write set sizes (lines) and the compute
	// instructions retired between memory operations.
	TxReads, TxWrites int
	ComputePerOp      uint64

	// Non-transactional work between atomic sections.
	NonTxCompute uint64
	NonTxMemOps  int

	// Contention structure. Hot is a small region receiving conflicting
	// reads and writes; Warm is a large read-mostly region (index/tree
	// lookups); each thread also owns a private region.
	HotLines, WarmLines, PrivateLines int
	// HotWriteFrac is the probability a transactional write targets the
	// hot region (else private); HotReadFrac / WarmReadFrac likewise for
	// reads (remainder private).
	HotWriteFrac, HotReadFrac, WarmReadFrac float64

	// PathLength, when non-zero, makes each transaction write a contiguous
	// run of lines starting at a random hot offset — labyrinth's grid
	// routing, which produces the paper's large-write-set overflow
	// behaviour.
	PathLength int

	// FaultProb is the per-transaction probability of raising an exception
	// mid-transaction (yada).
	FaultProb float64

	// Regenerate re-draws the transaction body on every attempt: dynamic
	// workloads (labyrinth re-routes, yada re-triangulates) read updated
	// shared state after an abort.
	Regenerate bool

	// BarrierEvery inserts a program-wide barrier after this many sections
	// per thread (0 = no barriers).
	BarrierEvery int
}

// Validate panics on nonsensical profiles.
func (p Profile) Validate() {
	if p.Name == "" || p.TotalSections <= 0 {
		panic(fmt.Sprintf("stamp: bad profile %+v", p))
	}
	if p.HotLines <= 0 || p.PrivateLines <= 0 {
		panic(fmt.Sprintf("stamp: profile %s needs hot and private regions", p.Name))
	}
	if p.TxReads+p.TxWrites+p.PathLength == 0 {
		panic(fmt.Sprintf("stamp: profile %s has empty transactions", p.Name))
	}
}

// Programs returns one program per thread. The same (profile, threads,
// seed) triple always yields identical programs, so every evaluated system
// runs exactly the same source workload — the paper's "same source code,
// same inputs" methodology.
//
// The programs are generators, not stored op streams: a section's
// operations are drawn when a core asks for them (cpu.Program.AppendOps)
// from an RNG stream fixed by (seed, thread, section, attempt). Programs
// itself allocates two objects whatever the thread and section counts, and
// the result holds no mutable state, so machines running at the same time
// can share it (DESIGN.md §10).
func Programs(p Profile, threads int, seed uint64) []cpu.Program {
	p.Validate()
	if threads <= 0 {
		panic("stamp: need at least one thread")
	}
	layout := mem.NewLayout()
	hot := layout.Alloc(p.HotLines)
	var warm mem.Region
	if p.WarmLines > 0 {
		warm = layout.Alloc(p.WarmLines)
	}
	root := *sim.NewRNG(seed ^ 0x5741_4D50) // "STMP"
	gens := make([]program, threads)
	programs := make([]cpu.Program, threads)
	per, extra := p.TotalSections/threads, p.TotalSections%threads
	for th := range gens {
		n := per
		if th < extra {
			n++
		}
		gens[th] = program{Profile: p, hot: hot, warm: warm, priv: layout.Alloc(p.PrivateLines),
			root: root, th: th, txs: n}
		programs[th] = &gens[th]
	}
	return programs
}

// program is one thread's program: txs transactions, each followed by its
// non-transactional work, with a barrier after every BarrierEvery
// transactions except the last. root is the seed's stream, the same for
// every thread; each section derives its own from it.
type program struct {
	Profile
	hot, warm, priv mem.Region
	root            sim.RNG
	th, txs         int
}

// Section parts: a transaction's atomic section, the plain section after
// it, and a barrier.
const (
	partAtomic = iota
	partPlain
	partBarrier
)

// Len implements cpu.Program.
func (g *program) Len() int {
	n := 2 * g.txs
	if b := g.BarrierEvery; b > 0 && g.txs > 0 {
		n += (g.txs - 1) / b
	}
	return n
}

// locate maps section i to its transaction s and part. With barriers the
// sections repeat in blocks of BarrierEvery (atomic, plain) pairs and a
// barrier.
func (g *program) locate(i int) (s, part int) {
	b := g.BarrierEvery
	if b <= 0 {
		return i / 2, i % 2
	}
	q, r := i/(2*b+1), i%(2*b+1)
	if r == 2*b {
		return 0, partBarrier
	}
	return q*b + r/2, r % 2
}

// Kind implements cpu.Program.
func (g *program) Kind(i int) cpu.SectionKind {
	switch _, part := g.locate(i); part {
	case partAtomic:
		if g.Regenerate {
			return cpu.SecDynamic
		}
		return cpu.SecAtomic
	case partPlain:
		return cpu.SecPlain
	default:
		return cpu.SecBarrier
	}
}

// AppendOps implements cpu.Program. Transaction s draws from the stream
// root.Split(th<<32|s). Whether it faults is drawn first, and only for a
// profile with a FaultProb: a property of the section (a yada refinement
// that traps keeps trapping on re-execution until the fallback path
// handles it non-speculatively), re-applied with high probability on every
// regenerated attempt. Then Split(0) draws a static body, Split(attempt) a
// regenerated one and Split(1) the plain section after it, so a
// regenerated body's first attempt shares the plain section's stream.
func (g *program) AppendOps(buf []cpu.Op, i, attempt int) []cpu.Op {
	s, part := g.locate(i)
	if part == partBarrier {
		return buf
	}
	rng := g.root.Split(uint64(g.th)<<32 | uint64(s))
	faulty := g.FaultProb > 0 && rng.Bool(g.FaultProb)
	switch {
	case part == partPlain:
		r := rng.Split(1)
		return g.appendPlain(buf, &r)
	case !g.Regenerate:
		r := rng.Split(0)
		return g.appendTx(buf, &r, faulty)
	default:
		r := rng.Split(uint64(attempt))
		return g.appendTx(buf, &r, faulty && r.Bool(0.85))
	}
}

// appendTx draws a transaction's operation stream.
func (g *program) appendTx(ops []cpu.Op, rng *sim.RNG, faulty bool) []cpu.Op {
	nR := rng.Geometric(float64(g.TxReads))
	nW := 0
	if g.TxWrites > 0 {
		nW = rng.Geometric(float64(g.TxWrites))
	}
	// Reads first (lookup phase), then the update phase, matching the
	// read-validate-update structure of the STAMP applications.
	for i := 0; i < nR; i++ {
		ops = g.appendAccess(ops, cpu.Read(g.readTarget(rng)))
	}
	faultAt := -1
	if faulty {
		faultAt = rng.Intn(nW + 1)
	}
	if g.PathLength > 0 {
		// Contiguous routing path through the hot grid.
		start := rng.Intn(g.hot.N)
		n := g.PathLength/2 + rng.Intn(g.PathLength)
		for i := 0; i < n; i++ {
			ops = g.appendAccess(ops, cpu.Write(g.hot.Pick(start+i)))
		}
	}
	for i := 0; i < nW; i++ {
		if i == faultAt {
			ops = append(ops, cpu.Fault())
		}
		ops = g.appendAccess(ops, cpu.Write(g.writeTarget(rng)))
	}
	return ops
}

// appendAccess appends a memory op and the compute that follows it.
func (g *program) appendAccess(ops []cpu.Op, op cpu.Op) []cpu.Op {
	ops = append(ops, op)
	if g.ComputePerOp > 0 {
		ops = append(ops, cpu.Compute(g.ComputePerOp))
	}
	return ops
}

func (g *program) readTarget(rng *sim.RNG) mem.Line {
	f := rng.Float64()
	switch {
	case f < g.HotReadFrac:
		return g.hot.Pick(rng.Intn(g.hot.N))
	case g.warm.N > 0 && f < g.HotReadFrac+g.WarmReadFrac:
		return g.warm.Pick(rng.Intn(g.warm.N))
	default:
		return g.priv.Pick(rng.Intn(g.priv.N))
	}
}

func (g *program) writeTarget(rng *sim.RNG) mem.Line {
	if rng.Float64() < g.HotWriteFrac {
		return g.hot.Pick(rng.Intn(g.hot.N))
	}
	return g.priv.Pick(rng.Intn(g.priv.N))
}

// appendPlain draws the non-transactional work after a transaction.
func (g *program) appendPlain(ops []cpu.Op, rng *sim.RNG) []cpu.Op {
	if g.NonTxCompute > 0 {
		ops = append(ops, cpu.Compute(g.NonTxCompute))
	}
	for i := 0; i < g.NonTxMemOps; i++ {
		if rng.Bool(0.5) {
			ops = append(ops, cpu.Read(g.priv.Pick(rng.Intn(g.priv.N))))
		} else {
			ops = append(ops, cpu.Write(g.priv.Pick(rng.Intn(g.priv.N))))
		}
	}
	return ops
}
