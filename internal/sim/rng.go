package sim

// RNG is a small, fast, seeded pseudo-random generator (splitmix64). The
// simulator cannot use math/rand's global source: every random decision in a
// run must derive from an explicit seed so that two runs with the same seed
// are bit-for-bit identical — the same property the virtual clock gives
// timings. Generators are cheap; subsystems that draw independently (fault
// injection per layer, workload generators) should each own one, derived
// with Derive, so extra draws in one subsystem never perturb another.
type RNG struct {
	state uint64
}

// NewRNG returns a generator for the given seed. Distinct seeds give
// uncorrelated streams; the same seed always gives the same stream.
func NewRNG(seed int64) *RNG {
	return &RNG{state: uint64(seed)}
}

// Derive returns a new generator whose stream is a pure function of this
// generator's seed and the salt — independent of how many values have been
// drawn from either. Use it to give each subsystem its own stream.
func (r *RNG) Derive(salt uint64) *RNG {
	return &RNG{state: splitmix(r.state ^ (salt * 0x9E3779B97F4A7C15))}
}

// splitmix is the splitmix64 output function.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next value of the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform virtual duration in [min, max].
func (r *RNG) Duration(min, max Time) Time {
	if max <= min {
		return min
	}
	return min + Time(r.Uint64()%uint64(max-min+1))
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
