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
	"slices"

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

// Programs generates one program per thread. The same (profile, threads,
// seed) triple always yields identical programs, so every evaluated system
// runs exactly the same source workload — the paper's "same source code,
// same inputs" methodology.
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
	private := make([]mem.Region, threads)
	for i := range private {
		private[i] = layout.Alloc(p.PrivateLines)
	}

	root := sim.NewRNG(seed ^ 0x5741_4D50) // "STMP"
	programs := make([]cpu.Program, threads)
	per := p.TotalSections / threads
	extra := p.TotalSections % threads

	for th := 0; th < threads; th++ {
		n := per
		if th < extra {
			n++
		}
		prog := make(cpu.Program, 0, 2*n+n/8)
		for s := 0; s < n; s++ {
			secRNG := root.Split(uint64(th)<<32 | uint64(s))
			prog = append(prog, p.atomicSection(secRNG, hot, warm, private[th]))
			prog = append(prog, p.plainSection(secRNG.Split(1), private[th]))
			if p.BarrierEvery > 0 && (s+1)%p.BarrierEvery == 0 && s+1 < n {
				prog = append(prog, cpu.BarrierSection())
			}
		}
		programs[th] = prog
	}
	return programs
}

// atomicSection builds one transaction. Whether a section faults is a
// property of the section (a yada refinement that traps keeps trapping on
// re-execution until the fallback path handles it non-speculatively), so
// the decision is drawn once per section and re-applied with high
// probability on every speculative attempt.
func (p Profile) atomicSection(rng *sim.RNG, hot, warm, priv mem.Region) cpu.Section {
	faulty := p.FaultProb > 0 && rng.Bool(p.FaultProb)
	if !p.Regenerate {
		ops := p.txBody(rng.Split(0), faulty, hot, warm, priv)
		return cpu.AtomicStatic(ops)
	}
	return cpu.AtomicDynamic(p.regenerated(rng, faulty, hot, warm, priv))
}

// regenerated returns the body generator of a Regenerate section. It is
// built here, not in atomicSection, so only Regenerate sections move a copy
// of the profile to the heap.
func (p Profile) regenerated(rng *sim.RNG, faulty bool, hot, warm, priv mem.Region) func(int) []cpu.Op {
	return func(attempt int) []cpu.Op {
		r := rng.Split(uint64(attempt))
		f := faulty && r.Bool(0.85)
		return p.txBody(r, f, hot, warm, priv)
	}
}

// txBody draws a transaction's operation stream. The slice is allocated at
// its final size: every access is followed by one compute op when
// ComputePerOp is set, plus room for one fault; labyrinth's path grows it
// once, when its length is drawn.
func (p Profile) txBody(rng *sim.RNG, faulty bool, hot, warm, priv mem.Region) []cpu.Op {
	nR := rng.Geometric(float64(p.TxReads))
	nW := 0
	if p.TxWrites > 0 {
		nW = rng.Geometric(float64(p.TxWrites))
	}
	per := 1 // ops per access
	if p.ComputePerOp > 0 {
		per = 2
	}
	ops := make([]cpu.Op, 0, (nR+nW)*per+1)
	// Reads first (lookup phase), then the update phase, matching the
	// read-validate-update structure of the STAMP applications.
	for i := 0; i < nR; i++ {
		ops = appendAccess(ops, cpu.Read(p.readTarget(rng, hot, warm, priv)), p.ComputePerOp)
	}
	faultAt := -1
	if faulty {
		faultAt = rng.Intn(nW + 1)
	}
	if p.PathLength > 0 {
		// Contiguous routing path through the hot grid.
		start := rng.Intn(hot.N)
		n := p.PathLength/2 + rng.Intn(p.PathLength)
		ops = slices.Grow(ops, (n+nW)*per+1)
		for i := 0; i < n; i++ {
			ops = appendAccess(ops, cpu.Write(hot.Pick(start+i)), p.ComputePerOp)
		}
	}
	for i := 0; i < nW; i++ {
		if i == faultAt {
			ops = append(ops, cpu.Fault())
		}
		ops = appendAccess(ops, cpu.Write(p.writeTarget(rng, hot, priv)), p.ComputePerOp)
	}
	return ops
}

// appendAccess appends a memory op and the compute that follows it.
func appendAccess(ops []cpu.Op, op cpu.Op, compute uint64) []cpu.Op {
	ops = append(ops, op)
	if compute > 0 {
		ops = append(ops, cpu.Compute(compute))
	}
	return ops
}

func (p Profile) readTarget(rng *sim.RNG, hot, warm, priv mem.Region) mem.Line {
	f := rng.Float64()
	switch {
	case f < p.HotReadFrac:
		return hot.Pick(rng.Intn(hot.N))
	case warm.N > 0 && f < p.HotReadFrac+p.WarmReadFrac:
		return warm.Pick(rng.Intn(warm.N))
	default:
		return priv.Pick(rng.Intn(priv.N))
	}
}

func (p Profile) writeTarget(rng *sim.RNG, hot, priv mem.Region) mem.Line {
	if rng.Float64() < p.HotWriteFrac {
		return hot.Pick(rng.Intn(hot.N))
	}
	return priv.Pick(rng.Intn(priv.N))
}

// plainSection builds the non-transactional work after a transaction.
func (p Profile) plainSection(rng *sim.RNG, priv mem.Region) cpu.Section {
	ops := make([]cpu.Op, 0, p.NonTxMemOps+1)
	if p.NonTxCompute > 0 {
		ops = append(ops, cpu.Compute(p.NonTxCompute))
	}
	for i := 0; i < p.NonTxMemOps; i++ {
		if rng.Bool(0.5) {
			ops = append(ops, cpu.Read(priv.Pick(rng.Intn(priv.N))))
		} else {
			ops = append(ops, cpu.Write(priv.Pick(rng.Intn(priv.N))))
		}
	}
	return cpu.Plain(ops)
}
