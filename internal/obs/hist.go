package obs

import "math/bits"

// Histogram counts observations into power-of-two buckets: bucket i holds
// values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Observing is
// one increment — no allocation, no search. The self-profiler fills it
// with host nanoseconds and the telemetry layer with simulated cycles.
type Histogram struct {
	count   uint64
	sum     uint64
	buckets [65]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// mean returns the mean observed value (0 when there are none).
func (h *Histogram) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// merge adds o's observations to h.
func (h *Histogram) merge(o *Histogram) {
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Bucket is one exported histogram bucket: N values were observed with
// value <= Le (and greater than the previous bucket's Le).
type Bucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// Buckets returns the non-empty buckets in increasing bound order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		le := uint64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		out = append(out, Bucket{Le: le, N: n})
	}
	return out
}
