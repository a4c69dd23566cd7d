package cpu

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mem"
)

func sampleProgram() Program {
	attempt0 := []Op{Read(10), Compute(5), Write(11)}
	attempt1 := []Op{Read(12), Fault()}
	return Sections{
		Plain([]Op{Compute(100), Read(1)}),
		AtomicDynamic(func(a int) []Op {
			if a == 1 {
				return attempt0
			}
			return attempt1
		}),
		BarrierSection(),
		AtomicStatic([]Op{Write(20)}),
	}
}

func TestProgramRoundTrip(t *testing.T) {
	progs := []Program{sampleProgram(), sampleProgram()}
	var buf bytes.Buffer
	if err := ExportPrograms(&buf, progs, 3); err != nil {
		t.Fatal(err)
	}
	got, err := ImportPrograms(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("programs = %d", len(got))
	}
	for pi, prog := range got {
		if prog.Len() != 4 {
			t.Fatalf("program %d has %d sections", pi, prog.Len())
		}
		if prog.Kind(2) != SecBarrier {
			t.Fatal("barrier lost")
		}
		// Plain ops preserved.
		if ops := prog.AppendOps(nil, 0, 1); prog.Kind(0) != SecPlain || len(ops) != 2 || ops[0].N != 100 {
			t.Fatalf("plain section = %+v", ops)
		}
		// Dynamic bodies per attempt preserved; later attempts clamp.
		a1 := prog.AppendOps(nil, 1, 1)
		if len(a1) != 3 || a1[0].Kind != OpRead || a1[0].Line != mem.Line(10) {
			t.Fatalf("attempt 1 = %+v", a1)
		}
		a2 := prog.AppendOps(nil, 1, 2)
		if len(a2) != 2 || a2[1].Kind != OpFault {
			t.Fatalf("attempt 2 = %+v", a2)
		}
		a9 := prog.AppendOps(nil, 1, 9) // beyond recorded: repeats last
		if len(a9) != 2 {
			t.Fatalf("attempt 9 = %+v", a9)
		}
	}
}

func TestReplayedProgramRunsIdentically(t *testing.T) {
	progs := counterProgram(2, 20, 4096)
	var buf bytes.Buffer
	if err := ExportPrograms(&buf, progs, 8); err != nil {
		t.Fatal(err)
	}
	replayed, err := ImportPrograms(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 2, Seed: 3}
	a, err := NewMachine(cfg, "orig", "t", progs).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMachine(cfg, "replay", "t", replayed).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles != b.ExecCycles || a.Sections() != b.Sections() {
		t.Fatalf("replay diverged: %d vs %d cycles", a.ExecCycles, b.ExecCycles)
	}
}

func TestImportErrors(t *testing.T) {
	if _, err := ImportPrograms(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON must error")
	}
	if _, err := ImportPrograms(strings.NewReader(`{"version":99,"programs":[]}`)); err == nil {
		t.Fatal("wrong version must error")
	}
	if _, err := ImportPrograms(strings.NewReader(
		`{"version":1,"programs":[[{"kind":"nope"}]]}`)); err == nil {
		t.Fatal("unknown section kind must error")
	}
	if _, err := ImportPrograms(strings.NewReader(
		`{"version":1,"programs":[[{"kind":"atomic"}]]}`)); err == nil {
		t.Fatal("atomic without bodies must error")
	}
	if _, err := ImportPrograms(strings.NewReader(
		`{"version":1,"programs":[[{"kind":"plain","ops":[{"k":"z"}]}]]}`)); err == nil {
		t.Fatal("unknown op kind must error")
	}
}

// FuzzImportPrograms: ImportPrograms never panics, and every atomic section
// it returns yields a body for attempt 0, attempt 1 and any attempt beyond
// the last one recorded (the last recorded body repeats).
func FuzzImportPrograms(f *testing.F) {
	var buf bytes.Buffer
	if err := ExportPrograms(&buf, []Program{sampleProgram()}, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"programs":[[{"kind":"atomic","attempts":[null,[{"k":"m","l":3}]]}]]}`))
	f.Add([]byte(`{"version":1,"programs":[[{"kind":"atomic"}],[{"kind":"plain","ops":[{"k":"x"}]}]]}`))
	f.Add([]byte(`{"version":2,"programs":[]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		progs, err := ImportPrograms(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, prog := range progs {
			for s := 0; s < prog.Len(); s++ {
				if !prog.Kind(s).Atomic() {
					continue
				}
				first := prog.AppendOps(nil, s, 1)
				if zero := prog.AppendOps(nil, s, 0); len(zero) != len(first) {
					t.Fatalf("attempt 0 body has %d ops, attempt 1 has %d", len(zero), len(first))
				}
				prog.AppendOps(nil, s, 1<<30)
			}
		}
	})
}
