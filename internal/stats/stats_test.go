package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestStreamBasics(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N=%d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean=%v", s.Mean())
	}
	// Known population: sample variance = 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance=%v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
}

func TestStreamEmptyAndSingle(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Fatal("empty stream nonzero")
	}
	if !math.IsInf(s.CI95(), 1) {
		t.Fatal("empty CI must be infinite")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Variance() != 0 {
		t.Fatal("single-element stats wrong")
	}
	if !math.IsInf(s.CI95(), 1) {
		t.Fatal("n=1 CI must be infinite")
	}
}

func TestCI95KnownCase(t *testing.T) {
	// n=5, sd=1: CI95 = t(4) * 1/sqrt(5) = 2.776/2.2360.
	var s Stream
	for _, x := range []float64{-1.264911064, -0.632455532, 0, 0.632455532, 1.264911064} {
		s.Add(x * 1.0) // constructed to have sd exactly 1
	}
	if math.Abs(s.StdDev()-1) > 1e-9 {
		t.Fatalf("sd=%v", s.StdDev())
	}
	want := 2.776 / math.Sqrt(5)
	if math.Abs(s.CI95()-want) > 1e-9 {
		t.Fatalf("CI95=%v want %v", s.CI95(), want)
	}
}

func TestCI95Relative(t *testing.T) {
	var s Stream
	for i := 0; i < 1000; i++ {
		s.Add(100) // zero variance
	}
	if rel := s.CI95Relative(); rel != 0 {
		t.Fatalf("relative CI of constant stream = %v", rel)
	}
	var z Stream
	z.Add(0)
	z.Add(0)
	if !math.IsInf(z.CI95Relative(), 1) {
		t.Fatal("zero-mean relative CI must be infinite")
	}
}

func TestCIShrinksWithSamples(t *testing.T) {
	r := rng.New(9)
	var small, big Stream
	for i := 0; i < 30; i++ {
		small.Add(r.Float64())
	}
	for i := 0; i < 3000; i++ {
		big.Add(r.Float64())
	}
	if big.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", big.CI95(), small.CI95())
	}
	// 3000 uniform samples: mean ~0.5 within a few CI widths.
	if math.Abs(big.Mean()-0.5) > 5*big.CI95() {
		t.Fatalf("mean %v too far from 0.5", big.Mean())
	}
}

func TestTCritical(t *testing.T) {
	if v := tCritical95(1); v != 12.706 {
		t.Fatalf("t(1)=%v", v)
	}
	if v := tCritical95(1000); v != 1.96 {
		t.Fatalf("t(1000)=%v", v)
	}
	// Interpolated value between df=20 (2.086) and df=25 (2.060).
	v := tCritical95(22)
	if v >= 2.086 || v <= 2.060 {
		t.Fatalf("t(22)=%v not interpolated", v)
	}
	if !math.IsInf(tCritical95(0), 1) {
		t.Fatal("t(0) must be infinite")
	}
}

func TestStreamString(t *testing.T) {
	var s Stream
	s.Add(1)
	s.Add(2)
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {25, 25.75}, {99, 99.01},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v=%v want %v", c.p, got, c.want)
		}
	}
	if s.Mean() != 50.5 {
		t.Fatalf("mean=%v", s.Mean())
	}
	if s.N() != 100 {
		t.Fatalf("N=%d", s.N())
	}
}

func TestSamplePanics(t *testing.T) {
	var s Sample
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty percentile did not panic")
			}
		}()
		s.Percentile(50)
	}()
	s.Add(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range percentile did not panic")
			}
		}()
		s.Percentile(101)
	}()
}

func TestSampleSingleElement(t *testing.T) {
	var s Sample
	s.Add(7)
	if s.Percentile(0) != 7 || s.Percentile(100) != 7 || s.Percentile(50) != 7 {
		t.Fatal("single-element percentiles wrong")
	}
}

// TestBatchStreamCyclicSeries is the cyclic-series sanity the array-based
// BatchMeans (superseded by the streaming BatchStream) used to cover: once
// the doubling batch size reaches a multiple of the cycle length, every
// full batch has the cycle mean and the across-batch variance is zero.
func TestBatchStreamCyclicSeries(t *testing.T) {
	b := NewBatchStream(5)
	for i := 0; i < 100; i++ {
		b.Add(float64(i % 8)) // power-of-two cycle, mean 3.5
	}
	// 100 observations with target 5 collapse through 1,2,4,8 to size 16 —
	// two full cycles per batch.
	if b.BatchSize() != 16 {
		t.Fatalf("batch size %d, want 16", b.BatchSize())
	}
	s := b.Stream()
	if s.Mean() != 3.5 || s.Variance() != 0 {
		t.Fatalf("batch means %v var %v", s.Mean(), s.Variance())
	}
}

// Property: Welford mean/variance match the two-pass formulas.
func TestWelfordMatchesTwoPass(t *testing.T) {
	r := rng.New(44)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(200)
		xs := make([]float64, n)
		var s Stream
		for i := range xs {
			xs[i] = r.Float64()*1000 - 500
			s.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		variance := 0.0
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(n - 1)
		if math.Abs(s.Mean()-mean) > 1e-9*math.Abs(mean)+1e-9 {
			t.Fatalf("mean %v vs %v", s.Mean(), mean)
		}
		if math.Abs(s.Variance()-variance) > 1e-9*variance+1e-9 {
			t.Fatalf("variance %v vs %v", s.Variance(), variance)
		}
	}
}
