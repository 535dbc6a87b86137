// Package xrand provides a tiny, fast, deterministic PRNG (splitmix64 seeded
// xoshiro256**) shared by the graph generators and randomized partitioners.
//
// math/rand would work, but a local generator guarantees the byte-for-byte
// reproducibility of every experiment across Go releases (the stdlib's
// unseeded top-level functions changed behaviour in 1.20, and Source
// implementations are not stable across versions), and it is allocation-free
// and inlinable.
package xrand

import "math/bits"

// RNG is a xoshiro256** generator. The zero value is not valid; use New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator deterministically seeded from seed via splitmix64.
// It is small enough to inline, so a generator that does not outlive its
// caller stays on the stack.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

func (r *RNG) seed(sm uint64) {
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1 // xoshiro must not be seeded all-zero
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint64n returns a uniform value in [0,n). n must be > 0.
// Uses Lemire's multiply-shift rejection method.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n(0)")
	}
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// Intn returns a uniform int in [0,n). n must be > 0.
func (r *RNG) Intn(n int) int {
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0,n).
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

// Hash64 mixes x through the splitmix64 finalizer: a stateless, high-quality
// 64-bit hash used by the hashing partitioners (Hashing, DBH).
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
