// Package rng provides the deterministic pseudo-random number generator and
// the sampling distributions used by the simulation study.
//
// The simulator does not use math/rand: reproducibility across Go versions is
// a requirement (math/rand's algorithms and helper implementations are not
// covered by the compatibility promise), and a dedicated splitmix64 stream
// keeps every run byte-for-byte reproducible from its seed.
package rng

import "math"

// RNG is a splitmix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; prefer New to make seeding explicit.
//
// RNG is not safe for concurrent use. The simulator is single-threaded by
// design; concurrent consumers must each own a stream (see Split).
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent stream from r, keyed by label. Using distinct
// labels for distinct subsystems keeps their random sequences decoupled, so
// adding a draw in one subsystem does not perturb another.
func (r *RNG) Split(label uint64) *RNG {
	// Mix the label through one splitmix64 round so adjacent labels produce
	// unrelated states.
	z := r.state + 0x9e3779b97f4a7c15*(label+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &RNG{state: z ^ (z >> 31)}
}

// DeriveSeed maps a base seed and a list of labels (for example job index
// and replica number) to a new seed, mixing each label through one
// splitmix64 round. The derivation is pure: it depends only on its inputs,
// never on goroutine scheduling or draw order, which is what lets a parallel
// experiment runner hand every job the same seed it would have received
// sequentially. Adjacent labels produce unrelated seeds.
func DeriveSeed(base uint64, labels ...uint64) uint64 {
	r := RNG{state: base}
	for _, l := range labels {
		r = *r.Split(l)
	}
	return r.state
}

// Stream returns a generator seeded with DeriveSeed(base, labels...): a keyed
// stream that depends only on the base seed and its labels, never on how
// many draws any other stream made, so independent consumers of one seed
// (per object, per role) draw the same sequences in whatever order they run.
//
//barter:allow deadcode bench/liveslice.go, medslice.go and probes.go draw their op orders from it; item 13
func Stream(base uint64, labels ...uint64) *RNG {
	return New(DeriveSeed(base, labels...))
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip advances the stream past n Uint64 draws without computing them: the
// next draw equals the one n calls to Uint64 would have been followed by.
// Splitmix64's state moves by a fixed increment per draw, so the advance is
// one multiply-add.
func (r *RNG) Skip(n uint64) { r.state += n * 0x9e3779b97f4a7c15 }

// Float64 returns a pseudo-random number in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0, matching
// math/rand's contract.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for an unbiased bounded draw.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// IntRange returns a pseudo-random int in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// PowerLaw samples ranks 1..n with probability proportional to rank^-f.
//
// This is the popularity model of the paper (after Schlosser, Condie &
// Kamvar, "Simulating a P2P file-sharing network"): the popularity of the
// item of rank i is p(i) = i^-f / sum_j j^-f. With f = 0 the distribution is
// uniform; with f = 1 it is zipf-like.
type PowerLaw struct {
	cdf []float64 // cdf[i] = P(rank <= i+1)
	// guide[k] is the first i with int(cdf[i]*n) >= k, for k in [0, n]: where
	// Rank starts its scan for a draw u with int(u*n) == k.
	guide []int32
	n     int
}

// NewPowerLaw builds a sampler over ranks 1..n with exponent f. It panics if
// n <= 0 or f < 0 (the model only uses f in [0, 1], larger values are legal).
func NewPowerLaw(n int, f float64) *PowerLaw {
	if n <= 0 {
		panic("rng: PowerLaw with non-positive n")
	}
	if f < 0 {
		panic("rng: PowerLaw with negative exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += math.Pow(float64(i), -f)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	guide := make([]int32, n+1)
	for k, i := 0, 0; k <= n; k++ {
		for int(cdf[i]*float64(n)) < k { // stops at n-1 at the latest: int(1*n) == n
			i++
		}
		guide[k] = int32(i)
	}
	return &PowerLaw{cdf: cdf, guide: guide, n: n}
}

// Rank draws a rank in [1, n] using r.
func (p *PowerLaw) Rank(r *RNG) int { return p.rank(r.Float64()) }

// rank maps a draw u in [0, 1) to the first cdf entry >= u, by guide table.
// x -> int(x*n) is monotone, so every entry before guide[int(u*n)] is below u
// and the scan forward finds exactly the entry a binary search of the whole
// cdf would, in a comparison or two: n guide cells against n cdf steps.
func (p *PowerLaw) rank(u float64) int {
	i := int(p.guide[int(u*float64(p.n))])
	for p.cdf[i] < u { // ends at n-1 at the latest: cdf[n-1] == 1 > u
		i++
	}
	return i + 1
}

// Weighted samples indices 0..len(weights)-1 with probability proportional
// to the (non-negative) weights. It is used for each peer's local category
// preference distribution, which the paper assigns uniformly random weights
// independent of global popularity.
type Weighted struct {
	cdf []float64
}

// NewWeighted builds a sampler from weights. It panics if weights is empty,
// contains a negative value, or sums to zero.
func NewWeighted(weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("rng: Weighted with no weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("rng: Weighted with negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum == 0 {
		panic("rng: Weighted with zero total weight")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[len(cdf)-1] = 1
	return &Weighted{cdf: cdf}
}

// Index draws an index using r.
func (w *Weighted) Index(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(w.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
