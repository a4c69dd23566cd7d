package sim

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// fnHandler runs a func() payload, so the tests below can schedule
// closures as typed events.
type fnHandler struct{}

func (fnHandler) OnEvent(_ uint8, _ uint64, p any) { p.(func())() }

// at and after schedule fn at absolute cycle t and d cycles from now.
func at(e *Engine, t uint64, fn func())    { e.AtEvent(t, fnHandler{}, 0, 0, fn) }
func after(e *Engine, d uint64, fn func()) { e.AfterEvent(d, fnHandler{}, 0, 0, fn) }

// TestEventRecordSize pins the event record at 64 bytes: (when, seq), the
// handler, the kind and two payload words, and no second event flavor.
func TestEventRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Fatalf("event record is %d bytes, want 64", n)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	at(e, 10, func() { got = append(got, 2) })
	at(e, 5, func() { got = append(got, 1) })
	at(e, 10, func() { got = append(got, 3) }) // same cycle: scheduling order
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestEngineAfterChains(t *testing.T) {
	e := NewEngine()
	var times []uint64
	var step func()
	step = func() {
		times = append(times, e.Now())
		if len(times) < 4 {
			after(e, 3, step)
		}
	}
	after(e, 0, step)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{0, 3, 6, 9} {
		if times[i] != want {
			t.Fatalf("times = %v", times)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	at(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		at(e, 5, func() {})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestEngineLimit(t *testing.T) {
	e := NewEngine()
	at(e, 100, func() {})
	if err := e.Run(50); err == nil {
		t.Fatal("expected limit error")
	}
	e2 := NewEngine()
	at(e2, 100, func() {})
	if err := e2.Run(100); err != nil {
		t.Fatalf("limit==when should run: %v", err)
	}
}

func TestEngineWatchdog(t *testing.T) {
	e := NewEngine()
	e.Watchdog = 100
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 100 {
			after(e, 10, tick) // never calls Progress
		}
	}
	after(e, 0, tick)
	if err := e.Run(0); err == nil {
		t.Fatal("expected watchdog error")
	}
}

func TestEngineWatchdogPatted(t *testing.T) {
	e := NewEngine()
	e.Watchdog = 100
	var tick func()
	n := 0
	tick = func() {
		n++
		e.Progress()
		if n < 50 {
			after(e, 90, tick)
		}
	}
	after(e, 0, tick)
	if err := e.Run(0); err != nil {
		t.Fatalf("watchdog fired despite progress: %v", err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(42).Split(1)
	d := NewRNG(42).Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(x uint16) bool {
		n := int(x%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(11)
	const draws = 20000
	sum := 0
	for i := 0; i < draws; i++ {
		v := r.Geometric(10)
		if v < 1 {
			t.Fatalf("Geometric returned %d", v)
		}
		sum += v
	}
	mean := float64(sum) / draws
	if mean < 7 || mean > 13 {
		t.Fatalf("Geometric(10) mean = %v, want ~10", mean)
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue should return false")
	}
	if e.Pending() != 0 || e.Executed() != 0 {
		t.Fatal("counters should be zero")
	}
}
