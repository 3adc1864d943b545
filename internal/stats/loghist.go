package stats

import (
	"fmt"
	"math"
)

// Default geometry for latency histograms: microsecond-denominated values
// from 100 ps to 100 s, 64 bins per decade. The worst-case relative error of
// a quantile answered from this geometry is half a bin in log space,
// 10^(1/128)-1 ≈ 1.8%.
const (
	DefaultHistLo        = 1e-4
	DefaultHistHi        = 1e8
	DefaultBinsPerDecade = 64
)

// LogHist is a fixed-bin log-scale histogram: constant memory regardless of
// how many observations it absorbs, O(1) allocation-free Add, and quantile
// queries with a bounded relative error set by the bin density. Two
// histograms with identical geometry Merge by plain counter addition, so
// per-worker shards combine deterministically when merged in a fixed order.
//
// Observations below the low edge (including zero and negative values) land
// in the underflow counter, observations at or above the high edge in the
// overflow counter; both still contribute to Count, Sum, Min and Max, and
// quantile queries resolve them to the observed Min/Max.
type LogHist struct {
	lo, hi        float64
	binsPerDecade int
	logLo         float64
	// invWidth converts a natural-log offset from lo into a bin index.
	invWidth  float64
	count     int64
	sum       float64
	min, max  float64
	underflow int64
	overflow  int64
	bins      []int64
}

// NewLogHist builds a histogram over [lo, hi) with binsPerDecade bins per
// factor of ten. lo must be positive.
func NewLogHist(lo, hi float64, binsPerDecade int) (*LogHist, error) {
	if !(lo > 0) || !(hi > lo) || binsPerDecade <= 0 {
		return nil, fmt.Errorf("stats: invalid log histogram [%v,%v) x%d/decade", lo, hi, binsPerDecade)
	}
	n := int(math.Ceil(math.Log10(hi/lo) * float64(binsPerDecade)))
	if n < 1 {
		n = 1
	}
	return &LogHist{
		lo:            lo,
		hi:            hi,
		binsPerDecade: binsPerDecade,
		logLo:         math.Log(lo),
		invWidth:      float64(binsPerDecade) / math.Ln10,
		bins:          make([]int64, n),
	}, nil
}

// NewLatencyHist builds a histogram with the default latency geometry.
func NewLatencyHist() *LogHist {
	h, err := NewLogHist(DefaultHistLo, DefaultHistHi, DefaultBinsPerDecade)
	if err != nil {
		panic(err) // constants are valid
	}
	return h
}

// Add inserts one observation. It never allocates.
func (h *LogHist) Add(x float64) {
	h.count++
	h.sum += x
	if h.count == 1 {
		h.min, h.max = x, x
	} else {
		if x < h.min {
			h.min = x
		}
		if x > h.max {
			h.max = x
		}
	}
	switch {
	case x < h.lo:
		h.underflow++
	case x >= h.hi:
		h.overflow++
	default:
		i := int((math.Log(x) - h.logLo) * h.invWidth)
		if i < 0 {
			i = 0
		} else if i >= len(h.bins) {
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// Count returns the number of observations.
func (h *LogHist) Count() int64 { return h.count }

// Sum returns the sum of all observations.
func (h *LogHist) Sum() float64 { return h.sum }

// Mean returns the exact mean of all observations (0 when empty).
func (h *LogHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (0 when empty).
func (h *LogHist) Min() float64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *LogHist) Max() float64 { return h.max }

// Underflow returns the number of observations below the low edge.
func (h *LogHist) Underflow() int64 { return h.underflow }

// Overflow returns the number of observations at or above the high edge.
func (h *LogHist) Overflow() int64 { return h.overflow }

// NumBins returns the bin count of the geometry.
func (h *LogHist) NumBins() int { return len(h.bins) }

// QuantileErrorBound returns the worst-case relative error of Quantile for
// in-range observations: half a bin in log space, 10^(1/(2·binsPerDecade))-1.
func (h *LogHist) QuantileErrorBound() float64 {
	return math.Pow(10, 1/(2*float64(h.binsPerDecade))) - 1
}

// Quantile answers the q-th quantile (0 <= q <= 1) as the geometric midpoint
// of the bin holding the ⌈q·count⌉-th smallest observation, clamped to the
// observed [Min, Max]. Underflow observations resolve to Min, overflow to
// Max. It returns 0 on an empty histogram.
func (h *LogHist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	k := int64(math.Ceil(q * float64(h.count)))
	if k < 1 {
		k = 1
	}
	cum := h.underflow
	if k <= cum {
		return h.min
	}
	for i, c := range h.bins {
		cum += c
		if k <= cum {
			v := math.Exp(h.logLo + (float64(i)+0.5)/h.invWidth)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge folds o into h. Both histograms must share the same geometry; counter
// addition makes the merge exact for counts and quantiles, and merging shards
// in a fixed order reproduces the sum bit-identically.
func (h *LogHist) Merge(o *LogHist) error {
	if h.lo != o.lo || h.hi != o.hi || h.binsPerDecade != o.binsPerDecade || len(h.bins) != len(o.bins) {
		return fmt.Errorf("stats: merging log histograms with different geometry: [%v,%v)x%d vs [%v,%v)x%d",
			h.lo, h.hi, h.binsPerDecade, o.lo, o.hi, o.binsPerDecade)
	}
	if o.count == 0 {
		return nil
	}
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.count += o.count
	h.sum += o.sum
	h.underflow += o.underflow
	h.overflow += o.overflow
	for i, c := range o.bins {
		h.bins[i] += c
	}
	return nil
}

// Clone returns an independent copy.
func (h *LogHist) Clone() *LogHist {
	c := *h
	c.bins = make([]int64, len(h.bins))
	copy(c.bins, h.bins)
	return &c
}

// Reset empties the histogram, retaining its bin storage.
func (h *LogHist) Reset() {
	h.count, h.underflow, h.overflow = 0, 0, 0
	h.sum, h.min, h.max = 0, 0, 0
	for i := range h.bins {
		h.bins[i] = 0
	}
}
