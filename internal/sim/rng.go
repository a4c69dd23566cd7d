package sim

// RNG is a small, fast, deterministic xorshift64* generator. The simulator
// must not depend on math/rand global state so that every run is exactly
// reproducible from its seed; each component derives its own stream with
// Split so that adding a consumer never perturbs another's sequence.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (zero is remapped: xorshift
// has an all-zero fixed point).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Split derives an independent stream labelled by id. It reads r without
// advancing it and returns the stream by value, so deriving one allocates
// nothing.
func (r *RNG) Split(id uint64) RNG {
	s := r.state ^ (id+1)*0xBF58476D1CE4E5B9
	s ^= s >> 30
	s *= 0x94D049BB133111EB
	s ^= s >> 31
	return *NewRNG(s)
}

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Geometric returns a sample from a geometric-ish distribution with the
// given mean (at least 1). Used to draw per-transaction op counts.
func (r *RNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	n := 1
	p := 1 - 1/mean
	for r.Bool(p) && n < int(mean*8) {
		n++
	}
	return n
}
