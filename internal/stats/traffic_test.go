package stats

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestTrafficMergeCoversEveryField fills two Traffic values with distinct
// random counters via reflection and checks Merge sums every uint64 field —
// so a counter added to the struct without a matching Merge line fails here
// instead of silently vanishing from aggregates.
func TestTrafficMergeCoversEveryField(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fill := func(tr *Traffic) {
		v := reflect.ValueOf(tr).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetUint(uint64(rng.Int63n(1 << 30)))
		}
	}
	var a, b Traffic
	fill(&a)
	fill(&b)
	got := a
	got.Merge(&b)
	va, vb, vg := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(got)
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		want := va.Field(i).Uint() + vb.Field(i).Uint()
		if vg.Field(i).Uint() != want {
			t.Errorf("Merge dropped or mis-summed field %s: got %d, want %d",
				typ.Field(i).Name, vg.Field(i).Uint(), want)
		}
	}
}

// TestTrafficMergeOrderIrrelevant pins that aggregating runs yields the
// same totals in any order.
func TestTrafficMergeOrderIrrelevant(t *testing.T) {
	parts := []Traffic{
		{L1Hits: 3, DirRequests: 7, NacksSent: 1},
		{L1Hits: 11, MemFetches: 5},
		{L1Misses: 2, DirRequests: 1, BackInvals: 9},
	}
	var fwd, rev Traffic
	for i := range parts {
		fwd.Merge(&parts[i])
		rev.Merge(&parts[len(parts)-1-i])
	}
	if fwd != rev {
		t.Errorf("merge order changed totals:\nfwd: %+v\nrev: %+v", fwd, rev)
	}
}
