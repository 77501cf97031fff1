// Package stats provides the measurement machinery used by the
// evaluation: per-VCPU user-instruction commit accounting (the paper's
// "work" metric), sample statistics with 95% confidence intervals
// across repeated runs, and normalization helpers for reproducing the
// paper's normalized figures.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations from repeated simulation runs with
// different seeds and reports their mean and 95% confidence interval,
// matching the paper's methodology ("we simulate multiple runs and
// report average results with 95% confidence intervals").
type Sample struct {
	xs []float64
}

// Add records one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// Reset empties the sample and keeps its storage for the next
// observations.
func (s *Sample) Reset() { s.xs = s.xs[:0] }

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation (0 if fewer than two
// observations).
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean using the Student-t distribution.
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * s.StdDev() / math.Sqrt(float64(n))
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// String formats the sample as "mean ±ci".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4f ±%.4f", s.Mean(), s.CI95())
}

// tCritical95 returns the two-tailed 95% Student-t critical value for
// the given degrees of freedom. Values beyond the table converge to the
// normal quantile 1.96.
func tCritical95(df int) float64 {
	table := []float64{
		0:  0, // unused
		1:  12.706,
		2:  4.303,
		3:  3.182,
		4:  2.776,
		5:  2.571,
		6:  2.447,
		7:  2.365,
		8:  2.306,
		9:  2.262,
		10: 2.228,
		11: 2.201,
		12: 2.179,
		13: 2.160,
		14: 2.145,
		15: 2.131,
		16: 2.120,
		17: 2.110,
		18: 2.101,
		19: 2.093,
		20: 2.086,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	switch {
	case df < 30:
		return 2.06
	case df < 60:
		return 2.00
	default:
		return 1.96
	}
}

// Ratio returns a/b, or 0 when b is 0; used when normalizing results
// against a baseline configuration.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Wilson returns the 95% Wilson score interval for k successes out of
// n Bernoulli trials. Unlike the normal approximation, the interval
// stays inside [0, 1] and remains meaningful at the proportions
// reliability campaigns care about most — coverage near 100% and SDC
// rates near 0% — where the Wald interval collapses to a point.
func Wilson(k, n uint64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = z95
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = (center - half) / denom
	hi = (center + half) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// z95 is the two-tailed 95% normal quantile shared by the Wilson
// interval and the sequential-stopping budget arithmetic.
const z95 = 1.959963984540054

// WilsonHalfWidth returns half the width of the 95% Wilson interval
// for num successes out of den trials — the precision figure the
// adaptive stopping rule compares against its target. It is the one
// definition of "half-width" in the tree: report columns and the
// sequential-stopping rule must agree on it, so neither recomputes
// (hi-lo)/2 by hand.
func WilsonHalfWidth(num, den uint64) float64 {
	lo, hi := Wilson(num, den)
	return (hi - lo) / 2
}

// WorstCaseTrials returns the smallest trial count n at which the
// 95% Wilson half-width is guaranteed to be at most half regardless
// of the observed proportion. The interval is widest at p=0.5, where
// the half-width is approximately z/(2*sqrt(n+z^2)); solving gives
// n = z^2/(4*half^2) - z^2. This is the sample size a fixed-batch
// design must provision to promise the same precision, and therefore
// the baseline adaptive campaigns report their trial savings against.
func WorstCaseTrials(half float64) uint64 {
	if half <= 0 {
		return 0
	}
	n := z95*z95/(4*half*half) - z95*z95
	if n < 1 {
		return 1
	}
	return uint64(math.Ceil(n))
}

// PercentileSorted returns the p-th percentile (0 < p <= 100) of an
// ascending-sorted sample using the nearest-rank definition, which is
// exact, deterministic and free of interpolation-order ambiguity.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
