// Package htm is a nowallclock fixture: every construct below injects
// nondeterminism into a deterministic package and must be flagged.
package htm

import (
	"math/rand"
	"os"
	"time"
)

// wallClock reads the host clock instead of simulated cycles.
func wallClock() int64 {
	t := time.Now() // want `time\.Now in deterministic package "htm": use sim\.Engine\.Now`
	return t.UnixNano()
}

// sleeper stalls on host time instead of scheduling an event.
func sleeper() {
	time.Sleep(time.Millisecond) // want `time\.Sleep in deterministic package "htm": schedule with sim\.Engine\.After`
}

// globalRand draws from the shared, unseeded global generator.
func globalRand(n int) int {
	return rand.Intn(n) // want `math/rand\.Intn in deterministic package "htm": use the seeded sim\.NewRNG`
}

// adHocSource builds a private source, still outside the seed tree.
func adHocSource(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `math/rand\.New in deterministic package` // want `math/rand\.NewSource in deterministic package`
}

// envRead makes behavior depend on the process environment.
func envRead() string {
	return os.Getenv("LOCKILLER_MODE") // want `os\.Getenv in deterministic package "htm": thread configuration through Params/Config`
}

// spawn hands ordering to the Go scheduler.
func spawn(fn func()) {
	go fn() // want `goroutine in deterministic package "htm"`
}

// channels order by the runtime, not by simulated time.
func channels(c chan int) int {
	c <- 1   // want `channel send in deterministic package "htm"`
	v := <-c // want `channel receive in deterministic package "htm"`
	close(c) // want `channel close in deterministic package "htm"`
	return v
}

// selects are scheduler-dependent by construction.
func selects(a, b chan int) int {
	select { // want `select in deterministic package "htm"`
	case v := <-a: // want `channel receive in deterministic package "htm"`
		return v
	case v := <-b: // want `channel receive in deterministic package "htm"`
		return v
	}
}
