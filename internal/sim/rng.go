// Package sim provides the simulation kernel shared by every other
// module in this repository: the cycle clock, a deterministic
// pseudo-random number generator, and the chip configuration
// corresponding to the target multicore of the paper
// (Wells, Chakraborty, Sohi, "Mixed-Mode Multicore Reliability",
// ASPLOS 2009, Section 4.1).
package sim

import (
	"fmt"
	"math"
)

// Rand is a small, fast, deterministic PRNG (splitmix64). Determinism
// matters: the vocal and the mute core of a Reunion pair must observe
// bit-identical instruction streams, which requires that two generators
// seeded identically produce identical sequences forever. Rand is not
// safe for concurrent use; every simulated agent owns its own Rand.
type Rand struct {
	state uint64

	// Geometric denominator memo: math.Log(1-1/mean) is a pure function
	// of the mean, and each caller samples from at most a couple of
	// fixed means (dependency distance, fetch-line run, fault interval),
	// so two slots avoid recomputing the log on every sample. Purely a
	// cache — identical inputs yield bit-identical samples.
	geoMean [2]float64
	geoLogQ [2]float64
}

// gamma is splitmix64's state increment: each output adds it once to
// the state, so output i of a state is a pure function of that state
// (OutputAt) and skipping outputs is one multiply (Skip).
const gamma = 0x9e3779b97f4a7c15

// mix is splitmix64's output finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce the same sequence.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed + gamma}
}

// Snapshot returns the internal state so a caller can checkpoint the
// generator (used by recovery and replay logic).
func (r *Rand) Snapshot() uint64 { return r.state }

// Restore rewinds the generator to a state captured by Snapshot.
func (r *Rand) Restore(s uint64) { r.state = s }

// Next returns the next 64 uniformly distributed bits.
func (r *Rand) Next() uint64 {
	r.state += gamma
	return mix(r.state)
}

// Skip advances the generator past its next n outputs without
// computing them: afterwards it is in the state n Next calls leave.
func (r *Rand) Skip(n uint64) { r.state += n * gamma }

// OutputAt returns output i (counting from 0) of a generator in state s
// — what the (i+1)-th Next after Restore(s) returns — without touching
// any generator. Uint64n(n) is exactly one output, Next() % n, so a
// caller can defer a run of draws it may never read.
func OutputAt(s, i uint64) uint64 {
	return mix(s + (i+1)*gamma)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). n must be positive.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Next() % n
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Around returns a sample uniform in [mean/2, 3*mean/2): a bounded
// jitter around mean. Phase lengths use this rather than a geometric
// distribution so that run-to-run variance at realistic simulation
// lengths stays small (the paper smooths its heavy-tailed phases over
// 100M-cycle runs; our windows are shorter).
func (r *Rand) Around(mean float64) int {
	if mean <= 1 {
		return 1
	}
	m := uint64(mean)
	v := m/2 + r.Uint64n(m+1)
	if v < 1 {
		v = 1
	}
	return int(v)
}

// DeriveSeed deterministically derives an independent stream seed from
// a base seed and a sequence of labels. Campaign jobs use it so that
// every (workload, kind, variant) cell of a sweep observes its own
// decorrelated random stream even when the declared seed is shared:
// the labels are folded in FNV-1a style and the result is pushed
// through the splitmix64 finalizer so nearby inputs land far apart.
func DeriveSeed(base uint64, labels ...string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h = (h ^ (base >> (8 * i) & 0xff)) * prime
	}
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h = (h ^ uint64(l[i])) * prime
		}
		h = (h ^ 0x1f) * prime // label separator
	}
	return mix(h)
}

// StreamCheck digests the opening of the canonical derived random
// stream into a short hex token. Two builds that disagree on either
// DeriveSeed or the generator itself — and would therefore simulate
// different chips from the same declared seed — disagree on this token.
// The distributed campaign protocol exchanges it at attach time so a
// coordinator never leases jobs to a worker running an incompatible
// simulator, which would silently break the byte-identical determinism
// guarantee of sharded campaigns.
func StreamCheck() string {
	r := NewRand(DeriveSeed(0x6d6d6d, "stream-check"))
	var h uint64
	for i := 0; i < 16; i++ {
		h = h*0x100000001b3 + r.Next()
	}
	return fmt.Sprintf("%016x", h)
}

// Geometric returns a sample from a geometric distribution with the
// given mean (at least 1). It is used for phase lengths and dependency
// distances, which the paper's workloads exhibit as heavy-tailed
// interleavings.
func (r *Rand) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	u := r.Float64()
	if u >= 1 {
		u = 0.999999999
	}
	// Inverse-CDF sampling: P(X = k) = p(1-p)^(k-1) with p = 1/mean.
	// The denominator log(1-p) depends only on the mean; serve it from
	// the two-slot memo (slot 0 holds the most recent mean).
	var logq float64
	switch mean {
	case r.geoMean[0]:
		logq = r.geoLogQ[0]
	case r.geoMean[1]:
		logq = r.geoLogQ[1]
		r.geoMean[0], r.geoMean[1] = r.geoMean[1], r.geoMean[0]
		r.geoLogQ[0], r.geoLogQ[1] = r.geoLogQ[1], r.geoLogQ[0]
	default:
		p := 1 / mean
		logq = math.Log(1 - p)
		r.geoMean[1] = r.geoMean[0]
		r.geoLogQ[1] = r.geoLogQ[0]
		r.geoMean[0] = mean
		r.geoLogQ[0] = logq
	}
	k := int(math.Ceil(math.Log(1-u) / logq))
	if k < 1 {
		k = 1
	}
	return k
}
