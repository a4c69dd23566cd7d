package noc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkArrival times the NoC's own work, arrival's link walk, with no
// event queue under it: the root BenchmarkNoCSend's message sequence
// (source i%T, destination 7i%T, data messages) on the 32-, 256- and
// 1024-tile meshes, with the clock moved to the latest arrival every 1,024
// messages where NoCSend drains the engine, so every message meets the
// same link reservations as there. NoCSend minus this rung is the queue's
// share of a send.
func BenchmarkArrival(b *testing.B) {
	for _, tiles := range []int{32, 256, 1024} {
		b.Run(fmt.Sprintf("tiles=%d", tiles), func(b *testing.B) {
			e := sim.NewEngine()
			topo, err := topology.New("", tiles)
			if err != nil {
				b.Fatal(err)
			}
			n := New(e, topo, DefaultConfig())
			var last uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last = max(last, n.arrival(i%tiles, (i*7)%tiles, DataFlits))
				if i%1024 == 0 {
					e.AdvanceTo(last)
				}
			}
		})
	}
}
