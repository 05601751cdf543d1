// Package rng provides a small deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator must produce bit-identical results for a given seed across
// platforms and Go releases, because every experiment in the paper is a
// statement about distributions collected from a fixed run. The standard
// library's math/rand historically changed its stream between releases, so
// we carry our own xoshiro256** generator seeded through splitmix64, the
// combination recommended by Blackman and Vigna.
package rng

import "math"

// Source is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct one with New.
type Source struct {
	s0, s1, s2, s3 uint64

	// Geometric's per-mean cache: callers draw with the same mean for a
	// whole run, so the denominator log(1-p) is computed once per mean
	// rather than once per draw. Reusing the stored float64 is
	// bit-identical to recomputing. geoInv (1/geoDen) and geoSlack (the
	// table path's margin per unit of exponent) are 0 when the table path
	// is off for this mean.
	geoMean  float64
	geoDen   float64
	geoInv   float64
	geoSlack float64
}

// New returns a Source seeded from the given seed via splitmix64, so that
// nearby seeds still produce uncorrelated streams.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator state as if it had been created by New(seed).
func (r *Source) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (r *Source) Uint64() uint64 {
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

// Uint32 returns a uniform 32-bit value.
func (r *Source) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) by modulo rejection: a draw
// above the largest multiple of n is redrawn, so the modulo is unbiased.
// It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling to remove modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v <= max {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean m
// (number of failures before the first success, mean m >= 0). It is used
// for inter-reference gaps. Returns 0 when m <= 0.
//
// The sample is int(log(u)/log(1-p)) for a uniform u, capped at maxGap.
// geometricTable answers almost every draw from a table of logarithms
// without evaluating the logarithm; the rest fall back to geometricLog,
// which computes that expression with math.Log. Both give the same
// integer for every u, so the stream does not depend on which answered.
func (r *Source) Geometric(m float64) int {
	if m <= 0 {
		return 0
	}
	if m != r.geoMean || r.geoDen == 0 {
		r.setGeometricMean(m)
	}
	// Inverse transform sampling; cap to keep pathological tails bounded.
	u := r.Float64()
	if u <= 0 {
		u = 1e-18
	}
	if n, ok := r.geometricTable(u); ok {
		return n
	}
	return geometricLog(u, r.geoDen)
}

// maxGap caps a geometric sample.
const maxGap = 1 << 20

// setGeometricMean caches mean m's denominator and, when the denominator
// is finite and negative, the table path's reciprocal and margin. A mean
// whose denominator is 0, -Inf or NaN (huge, tiny or NaN means) always
// takes geometricLog.
func (r *Source) setGeometricMean(m float64) {
	p := 1 / (m + 1)
	r.geoMean = m
	r.geoDen = math.Log(1 - p)
	r.geoInv, r.geoSlack = 0, 0
	if r.geoDen < 0 && r.geoDen > math.Inf(-1) {
		r.geoInv = 1 / r.geoDen
		r.geoSlack = -r.geoInv * 0x1p-40
	}
}

// geoLogTable[i] is log(1 + i/1024): geometricTable's bucket edges.
var geoLogTable = func() (t [1025]float64) {
	for i := range t {
		t[i] = math.Log1p(float64(i) / 1024)
	}
	return t
}()

// geometricTable answers the draw for a normal u in (0, 1) without a
// logarithm when it can, and reports whether it did.
//
// Write u = 2^e(1+f) with f in [0, 1), and let i be f's top ten bits, so
// 1+i/1024 <= 1+f < 1+(i+1)/1024. Then log(u) lies between
// e*ln2 + geoLogTable[i] and e*ln2 + geoLogTable[i+1], and since
// inv = 1/den is negative, the quotient q = log(u)/den lies between lo and
// hi below. If lo and hi, each widened by w, truncate to the same integer,
// geometricLog's truncation of its own rounded quotient is that integer.
//
// Why w covers every rounding, for any mean: |log(u)| <= |e| ln2, so
// q and both table bounds are at most X = (|e|+1)|inv| in magnitude.
// geometricLog's quotient is q to within 2^-51 q (math.Log is under one
// ulp, 2^-52 relative, and the division adds 2^-53). Each table bound is
// its exact value to within 2^-50 X: the table entries (math.Log1p, under
// one ulp), e*ln2 and the sum carry under (|e|+1)·2^-51 together, scaled
// by |inv|, and the multiply by the rounded reciprocal adds 2^-52 X. The
// total, under 2^-49 X, is 512 times smaller than w = 2^-40 X, which also
// leaves room for the rounding of the widening itself. The check that n
// lies below maxGap leaves the cap to geometricLog.
func (r *Source) geometricTable(u float64) (int, bool) {
	inv := r.geoInv
	if inv == 0 {
		return 0, false
	}
	b := math.Float64bits(u)
	fe := float64(int(b>>52) - 1023)
	a := fe * math.Ln2
	i := b >> 42 & 1023
	lo := (a + geoLogTable[i+1]) * inv
	hi := (a + geoLogTable[i]) * inv
	w := (1 - fe) * r.geoSlack
	n := int(lo - w)
	if n != int(hi+w) || uint(n) >= maxGap {
		return 0, false
	}
	return n, true
}

// geometricLog is the draw computed with math.Log: the fallback, and the
// definition geometricTable must reproduce.
func geometricLog(u, den float64) int {
	n := int(math.Log(u) / den)
	if n < 0 {
		return 0
	}
	if n > maxGap {
		return maxGap
	}
	return n
}

// Perm fills out with a uniform random permutation of [0, len(out)).
func (r *Source) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
