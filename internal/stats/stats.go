package stats

import (
	"fmt"
	"math"
	"sort"
)

// Stream accumulates a sample stream with Welford's algorithm; it is
// numerically stable and O(1) per observation.
type Stream struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add inserts one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Stream) N() int64 { return s.n }

// Mean returns the sample mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Stream) StdErr() float64 {
	if s.n < 1 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the 95% confidence interval for the mean
// using the Student-t distribution.
func (s *Stream) CI95() float64 {
	if s.n < 2 {
		return math.Inf(1)
	}
	return tCritical95(s.n-1) * s.StdErr()
}

// String renders "mean ± ci95 (n=…)".
func (s *Stream) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.N())
}

// Merge folds o's observations into s using the parallel Welford/Chan
// update: the merged moments are exactly those of the concatenated stream up
// to floating-point rounding. Merging shards in a fixed order yields
// bit-identical results regardless of how the shards were produced.
func (s *Stream) Merge(o *Stream) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.mean += delta * float64(o.n) / float64(n)
	s.n = n
}

// tTable holds two-sided 97.5% (i.e. 95% CI) Student-t critical values for
// small degrees of freedom; beyond the table the normal approximation is
// accurate to <0.5%.
var tTable = map[int64]float64{
	1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
	6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
	11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
	16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
	25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980,
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom, interpolating the standard table.
func tCritical95(df int64) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if v, ok := tTable[df]; ok {
		return v
	}
	if df > 120 {
		return 1.96
	}
	// Linear interpolation between the nearest table entries.
	keys := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 25, 30, 40, 60, 120}
	lo, hi := keys[0], keys[len(keys)-1]
	for _, k := range keys {
		if k <= df && k > lo {
			lo = k
		}
		if k >= df && k < hi {
			hi = k
		}
	}
	if lo == hi {
		return tTable[lo]
	}
	frac := float64(df-lo) / float64(hi-lo)
	return tTable[lo] + frac*(tTable[hi]-tTable[lo])
}

// Sample is an in-memory sample supporting percentiles.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the sample size.
func (s *Sample) N() int { return len(s.xs) }

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics. It panics on an empty sample or
// out-of-range p.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Mean returns the sample mean.
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
