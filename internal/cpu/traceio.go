package cpu

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Program serialization: thread programs can be exported to JSON and
// replayed later (or on another machine configuration), decoupling
// workload generation from simulation. Dynamic atomic sections (bodies
// that change per attempt) are expanded up to a bounded number of
// attempts; replay repeats the last recorded body for deeper retries,
// which preserves the workload's behaviour for any realistic retry budget.

type opJSON struct {
	K string   `json:"k"`           // "r", "w", "c", "f"
	L mem.Line `json:"l,omitempty"` // line for r/w
	N uint64   `json:"n,omitempty"` // amount for c
}

type sectionJSON struct {
	Kind     string     `json:"kind"` // "atomic", "plain", "barrier"
	Ops      []opJSON   `json:"ops,omitempty"`
	Attempts [][]opJSON `json:"attempts,omitempty"` // atomic bodies per attempt
}

type traceJSON struct {
	Version  int             `json:"version"`
	Programs [][]sectionJSON `json:"programs"`
}

const traceVersion = 1

func opsToJSON(ops []Op) []opJSON {
	out := make([]opJSON, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpRead:
			out[i] = opJSON{K: "r", L: op.Line}
		case OpWrite:
			out[i] = opJSON{K: "w", L: op.Line}
		case OpCompute:
			out[i] = opJSON{K: "c", N: op.N}
		case OpFault:
			out[i] = opJSON{K: "f"}
		case OpRMW:
			out[i] = opJSON{K: "m", L: op.Line}
		default:
			panic(fmt.Sprintf("cpu: cannot serialize op kind %d", op.Kind))
		}
	}
	return out
}

func opsFromJSON(js []opJSON) ([]Op, error) {
	out := make([]Op, len(js))
	for i, j := range js {
		switch j.K {
		case "r":
			out[i] = Read(j.L)
		case "w":
			out[i] = Write(j.L)
		case "c":
			out[i] = Compute(j.N)
		case "f":
			out[i] = Fault()
		case "m":
			out[i] = RMW(j.L)
		default:
			return nil, fmt.Errorf("cpu: unknown op kind %q", j.K)
		}
	}
	return out, nil
}

// ExportPrograms serializes the per-thread programs. Atomic bodies are
// recorded for attempts 1..maxAttempts (minimum 1).
func ExportPrograms(w io.Writer, programs []Program, maxAttempts int) error {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	t := traceJSON{Version: traceVersion}
	var buf []Op
	for _, prog := range programs {
		var secs []sectionJSON
		for i := 0; i < prog.Len(); i++ {
			switch kind := prog.Kind(i); {
			case kind == SecBarrier:
				secs = append(secs, sectionJSON{Kind: "barrier"})
			case kind.Atomic():
				sj := sectionJSON{Kind: "atomic"}
				for a := 1; a <= maxAttempts; a++ {
					buf = prog.AppendOps(buf[:0], i, a)
					sj.Attempts = append(sj.Attempts, opsToJSON(buf))
				}
				secs = append(secs, sj)
			default:
				buf = prog.AppendOps(buf[:0], i, 1)
				secs = append(secs, sectionJSON{Kind: "plain", Ops: opsToJSON(buf)})
			}
		}
		t.Programs = append(t.Programs, secs)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// ImportPrograms deserializes programs written by ExportPrograms.
func ImportPrograms(r io.Reader) ([]Program, error) {
	var t traceJSON
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("cpu: decoding program trace: %w", err)
	}
	if t.Version != traceVersion {
		return nil, fmt.Errorf("cpu: unsupported trace version %d", t.Version)
	}
	var programs []Program
	for pi, secs := range t.Programs {
		var prog Sections
		for si, sj := range secs {
			switch sj.Kind {
			case "barrier":
				prog = append(prog, BarrierSection())
			case "plain":
				ops, err := opsFromJSON(sj.Ops)
				if err != nil {
					return nil, fmt.Errorf("cpu: program %d section %d: %w", pi, si, err)
				}
				prog = append(prog, Plain(ops))
			case "atomic":
				if len(sj.Attempts) == 0 {
					return nil, fmt.Errorf("cpu: program %d section %d: atomic without bodies", pi, si)
				}
				bodies := make([][]Op, len(sj.Attempts))
				for a, js := range sj.Attempts {
					ops, err := opsFromJSON(js)
					if err != nil {
						return nil, fmt.Errorf("cpu: program %d section %d attempt %d: %w", pi, si, a+1, err)
					}
					bodies[a] = ops
				}
				prog = append(prog, AtomicDynamic(func(attempt int) []Op {
					idx := attempt - 1
					if idx < 0 {
						idx = 0
					}
					if idx >= len(bodies) {
						idx = len(bodies) - 1
					}
					return bodies[idx]
				}))
			default:
				return nil, fmt.Errorf("cpu: program %d section %d: unknown kind %q", pi, si, sj.Kind)
			}
		}
		programs = append(programs, prog)
	}
	return programs, nil
}
