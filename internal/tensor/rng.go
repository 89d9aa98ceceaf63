package tensor

import "math"

// RNG is a small, fast, deterministic PRNG (splitmix64 core) used everywhere
// randomness is needed. Experiments must be reproducible across runs and
// platforms, so the stack never touches math/rand's global state.
type RNG struct {
	state uint64
	// spare Gaussian from Box–Muller
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform sample in [0,n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard Gaussian sample via Box–Muller.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	// Products are rounded before their adds (r.Float64 ends in one), so a
	// compiler that fuses (arm64) draws amd64's samples.
	var u, v, s float64
	for {
		u = 2*float64(r.Float64()) - 1
		v = 2*float64(r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Perm returns a pseudo-random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork returns an independent generator derived from r and a label, so that
// subsystems (per-client, per-task) get decorrelated streams while remaining
// fully deterministic.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0xA24BAED4963EE407))
}

// FillNorm fills dst with Gaussian samples scaled by std.
func (r *RNG) FillNorm(dst []float32, std float64) {
	for i := range dst {
		dst[i] = float32(r.Norm() * std)
	}
}

// FillUniform fills dst with uniform samples in [lo,hi).
func (r *RNG) FillUniform(dst []float32, lo, hi float64) {
	for i := range dst {
		dst[i] = float32(lo + float64((hi-lo)*r.Float64()))
	}
}

// Randn allocates a tensor with Gaussian entries of the given std.
func Randn(r *RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	r.FillNorm(t.Data, std)
	return t
}
