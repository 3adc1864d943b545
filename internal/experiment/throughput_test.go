package experiment

import "testing"

func TestRunThroughputTracksOfferedBelowSaturation(t *testing.T) {
	series := run(t, throughput, DriverOpts{Messages: 150, Seed: 21, Sim: smallSim()}).Series
	for _, s := range series {
		// The two lowest rates sit below saturation: accepted ~= offered
		// (within 50 %: finite-run edge effects shave the measured span),
		// and accepted throughput grows with offered load.
		lo, next := s.Points[0], s.Points[1]
		for _, p := range []Point{lo, next} {
			if p.Mean < 0.5*p.X || p.Mean > 1.5*p.X {
				t.Fatalf("%s: accepted %.4f far from offered %.4f", s.Label, p.Mean, p.X)
			}
		}
		if next.Mean <= lo.Mean {
			t.Fatalf("%s: throughput did not grow: %.4f -> %.4f", s.Label, lo.Mean, next.Mean)
		}
	}
}

func TestRunThroughputSaturates(t *testing.T) {
	series := run(t, throughput, DriverOpts{Messages: 150, Seed: 22, Sim: smallSim()}).Series
	for _, s := range series {
		low, high := s.Points[1], s.Points[len(s.Points)-1]
		// At the highest rate the accepted rate falls well short of
		// offered.
		if high.Mean > 0.8*high.X {
			t.Fatalf("%s: no saturation: accepted %.4f of offered %.4f", s.Label, high.Mean, high.X)
		}
		// But it stays at least near what a lower rate achieved (no
		// throughput collapse: SPAM has no retransmissions to thrash on).
		if high.Mean < 0.8*low.Mean {
			t.Fatalf("%s: throughput collapse: %.4f at %v -> %.4f at %v", s.Label, low.Mean, low.X, high.Mean, high.X)
		}
	}
}
