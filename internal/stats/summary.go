package stats

import "fmt"

// Summary is the constant-memory replacement for hoarding a latency sample:
// exact streaming moments (Welford) plus a log-scale histogram for quantiles.
// Every accumulator is fixed-size, so a Summary absorbs millions of
// observations without growing, and two Summaries over the same histogram
// geometry Merge deterministically (merge shards in a fixed order to get
// bit-identical floats).
//
// Confidence intervals default to treating observations as independent; for
// autocorrelated steady-state series, install a batch-means stream with
// SetBatchCI and CI95/N answer from it instead (the paper's Section 4
// methodology).
type Summary struct {
	stream Stream
	hist   *LogHist
	batch  *Stream
}

// NewSummary builds a Summary over the default latency histogram geometry.
func NewSummary() *Summary { return &Summary{hist: NewLatencyHist()} }

// Add inserts one observation. It never allocates.
func (s *Summary) Add(x float64) {
	s.stream.Add(x)
	s.hist.Add(x)
}

// Merge folds o's observations into s. The batch-means CI (if any) is
// dropped: it summarizes a contiguous series and cannot be stitched from
// shards — rebuild it with SetBatchCI after merging.
func (s *Summary) Merge(o *Summary) error {
	if err := s.hist.Merge(o.hist); err != nil {
		return err
	}
	s.stream.Merge(&o.stream)
	s.batch = nil
	return nil
}

// SetBatchCI installs a batch-means stream as the CI source (a copy is
// taken). Pass nil to revert to per-observation CIs.
func (s *Summary) SetBatchCI(b *Stream) {
	if b == nil {
		s.batch = nil
		return
	}
	c := *b
	s.batch = &c
}

// BatchCI returns the installed batch-means stream, or nil.
func (s *Summary) BatchCI() *Stream { return s.batch }

// Count returns the number of observations absorbed.
func (s *Summary) Count() int64 { return s.stream.N() }

// N returns the number of statistical samples behind CI95: batch means when
// a batch-means stream is installed, raw observations otherwise.
func (s *Summary) N() int64 {
	if s.batch != nil && s.batch.N() >= 2 {
		return s.batch.N()
	}
	return s.stream.N()
}

// Mean returns the mean over every observation.
func (s *Summary) Mean() float64 { return s.stream.Mean() }

// Min returns the smallest observation.
func (s *Summary) Min() float64 { return s.stream.Min() }

// Max returns the largest observation.
func (s *Summary) Max() float64 { return s.stream.Max() }

// StdDev returns the per-observation sample standard deviation.
func (s *Summary) StdDev() float64 { return s.stream.StdDev() }

// CI95 returns the 95% confidence half-width for the mean, from batch means
// when installed (honest under autocorrelation), else from raw observations.
func (s *Summary) CI95() float64 {
	if s.batch != nil && s.batch.N() >= 2 {
		return s.batch.CI95()
	}
	return s.stream.CI95()
}

// Quantile answers the q-th quantile (0 <= q <= 1) from the histogram; see
// LogHist.Quantile for the error bound.
func (s *Summary) Quantile(q float64) float64 { return s.hist.Quantile(q) }

// Stream exposes the per-observation moment accumulator.
func (s *Summary) Stream() *Stream { return &s.stream }

// Hist exposes the underlying histogram.
func (s *Summary) Hist() *LogHist { return s.hist }

// Clone returns an independent copy.
func (s *Summary) Clone() *Summary {
	c := &Summary{stream: s.stream, hist: s.hist.Clone()}
	if s.batch != nil {
		b := *s.batch
		c.batch = &b
	}
	return c
}

// Reset empties every accumulator, retaining the histogram storage.
func (s *Summary) Reset() {
	s.stream = Stream{}
	s.hist.Reset()
	s.batch = nil
}

// String renders "mean ± ci95 (n=…, p50=…, p99=…)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d, p50=%.4g, p99=%.4g)",
		s.Mean(), s.CI95(), s.N(), s.Quantile(0.5), s.Quantile(0.99))
}
