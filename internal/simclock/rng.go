package simclock

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (splitmix64 seeding an xoshiro256** core).  The simulation uses its own
// generator instead of math/rand so that experiment runs are reproducible
// across Go versions and so that independent streams can be forked cheaply
// for each virtual machine / client population.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := seeded(seed)
	return &r
}

// seeded returns the generator NewRNG(seed) points to.
func seeded(seed uint64) RNG {
	var r RNG
	// splitmix64 to fill the state; guarantees a non-zero state.
	x := seed
	for i := range r.s {
		r.s[i] = mix64(x)
		x += 0x9e3779b97f4a7c15
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Fork derives an independent stream from the current one.  The child's
// sequence does not overlap the parent's for any practical horizon.
func (r *RNG) Fork() *RNG {
	f := r.ForkValue()
	return &f
}

// ForkValue is Fork for a caller that keeps the child by value (say, in a
// slice of clients): the same stream, without a heap allocation.
func (r *RNG) ForkValue() RNG {
	return seeded(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

// mix64 is the splitmix64 finaliser, the same mixing function NewRNG uses to
// expand a seed into the xoshiro state.  It is a bijection on uint64, so
// distinct inputs always yield distinct outputs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed splits a base seed into the seed of an independent stream
// identified by the given indices (job index, replication index, ...).  The
// derivation is a pure function of (base, indices): it does not depend on any
// generator state, call order, or goroutine scheduling, which is what makes
// parallel experiment sweeps bit-identical regardless of worker count or
// completion order.  Each index is folded in through the splitmix64 finaliser
// so that DeriveSeed(s, a, b) ≠ DeriveSeed(s, b, a) and neighbouring indices
// land on uncorrelated streams.
func DeriveSeed(base uint64, indices ...uint64) uint64 {
	s := mix64(base ^ 0x5851f42d4c957f2d)
	for _, idx := range indices {
		s = mix64(s ^ mix64(idx+0x9e3779b97f4a7c15))
	}
	return s
}

// NewStreamRNG returns a generator on the independent stream derived from the
// base seed and the stream indices via DeriveSeed.
func NewStreamRNG(base uint64, indices ...uint64) *RNG {
	return NewRNG(DeriveSeed(base, indices...))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n).  It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simclock: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo,hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.  A
// non-positive mean yields zero.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box–Muller transform).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// SkipNormal advances the generator exactly as one Normal call does, without
// the Box–Muller arithmetic.  A caller that must keep its stream aligned but
// does not need the value (an unread measurement) calls it instead.
func (r *RNG) SkipNormal() {
	for r.Float64() == 0 {
	}
	r.Uint64()
}

// Binomial returns a binomially distributed count: the number of successes
// among n independent trials with success probability p.  Cohort-compressed
// client populations use it to split a counted state bucket across a
// transition ("how many of the n thinking clients fire this tick").  Small
// means use inversion (one uniform walked down the CDF); large means use the
// normal approximation clamped to the support.
func (r *RNG) Binomial(n int, p float64) int { return r.BinomialWith(n, p, nil) }

// binomialInversionMax is the largest mean np the inversion walk serves;
// above it Binomial draws from the normal approximation.
const binomialInversionMax = 50

// BinomialPow prepares the inversion start points of Binomial draws with a
// fixed p and at most maxN trials: entry n is q^n = math.Pow(1-p, n), the
// same bits the draw would compute, for every n <= maxN the inversion walk
// serves.  It returns nil, and BinomialWith then computes every q^n itself,
// when p lies outside (0, 0.5] (the walk counts failures for p > 0.5) or
// maxN < 1.  The table is immutable, so any number of goroutines may draw
// with it, each with its own RNG.
func BinomialPow(p float64, maxN int) []float64 {
	if !(p > 0 && p <= 0.5) || maxN < 1 {
		return nil
	}
	q := 1 - p
	var pow []float64
	for n := 0; n <= maxN && float64(n)*p <= binomialInversionMax; n++ {
		pow = append(pow, math.Pow(q, float64(n)))
	}
	return pow
}

// BinomialWith is Binomial reading q^n from pow, a BinomialPow(p, ...) table
// for the same p, when the table covers n; any other n, and every n when pow
// is nil, computes it.  The draw is the same as Binomial's, consuming the
// same generator values.
func (r *RNG) BinomialWith(n int, p float64, pow []float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		// Count failures instead: keeps q^n away from underflow in the
		// inversion branch and shortens the expected CDF walk.
		return n - r.BinomialWith(n, 1-p, nil)
	}
	np := float64(n) * p
	if np > binomialInversionMax {
		v := r.Normal(np, math.Sqrt(np*(1-p)))
		if v < 0 {
			return 0
		}
		k := int(v + 0.5)
		if k > n {
			return n
		}
		return k
	}
	// Inversion (BINV): start at P(0) = q^n and walk the CDF with the pmf
	// recurrence P(k+1) = P(k) * (n-k)/(k+1) * p/q.  With p <= 0.5 and
	// np <= 50, q^n >= e^-51, comfortably inside float range.
	q := 1 - p
	s := p / q
	var f float64
	if n < len(pow) {
		f = pow[n]
	} else {
		f = math.Pow(q, float64(n))
	}
	u := r.Float64()
	for k := 0; ; k++ {
		if u < f {
			return k
		}
		u -= f
		if k == n {
			// Floating-point slack left u above the summed pmf; the mass
			// beyond k = n is zero, so clamp to the support.
			return n
		}
		f *= s * float64(n-k) / float64(k+1)
	}
}

// Erlang returns an Erlang-distributed value: the sum of n independent
// exponential draws, each with the given mean (total mean n*mean).  A VM
// serving a cohort batch of n interactions back to back uses it as the
// batch's service time.  Large n uses the normal approximation of the sum.
func (r *RNG) Erlang(n int, mean float64) float64 {
	if n <= 0 || mean <= 0 {
		return 0
	}
	if n > 50 {
		fn := float64(n)
		v := r.Normal(fn*mean, math.Sqrt(fn)*mean)
		if v < 0 {
			return 0
		}
		return v
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += r.Exp(mean)
	}
	return total
}

// Weights is a weighted choice over fixed weights, prepared once: it keeps the
// prefix sums of the positive weights, so a pick is one uniform draw and a
// scan instead of two passes over the weights.  Non-positive weights are
// never picked; when every weight is non-positive a pick is uniform.  A
// Weights is immutable after NewWeights, so any number of goroutines may pick
// from it, each with its own RNG.
type Weights struct {
	// cum[i] is the sum of the positive weights among w[0..i], accumulated
	// left to right.
	cum []float64
}

// NewWeights prepares the weighted choice over w.  It takes w over: the
// table overwrites w with its prefix sums and keeps it, so the caller must
// not use w afterwards.
func NewWeights(w []float64) Weights {
	acc := 0.0
	for i, x := range w {
		if x > 0 {
			acc += x
		}
		w[i] = acc
	}
	return Weights{cum: w}
}

// Pick returns an index with probability proportional to its weight.  It
// draws exactly one Float64, or one Intn over every index when no weight is
// positive (Intn panics on an empty table).  The first prefix sum above the target
// always belongs to a positive weight, since a non-positive weight repeats
// the sum before it, and a target rounded up to the total falls back to the
// last index.
func (w Weights) Pick(r *RNG) int {
	n := len(w.cum)
	if n == 0 || w.cum[n-1] <= 0 {
		return r.Intn(n)
	}
	target := r.Float64() * w.cum[n-1]
	for i, c := range w.cum {
		if target < c {
			return i
		}
	}
	return n - 1
}
