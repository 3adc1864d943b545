package experiment

import "testing"

func TestRunRootShareGrows(t *testing.T) {
	s := run(t, rootShare, DriverOpts{Trials: 8, Seed: 5, Sim: smallSim()}).Series[0]
	if len(s.Points) != len(rootShareDests) {
		t.Fatalf("%d points", len(s.Points))
	}
	// Root share is a percentage.
	for _, p := range s.Points {
		if p.Mean < 0 || p.Mean > 100 {
			t.Fatalf("root share %v out of range", p.Mean)
		}
	}
	// The paper's claim: share grows with the destination count, and the
	// largest multicasts pass through the root.
	first, last := s.Points[0], s.Points[len(s.Points)-1]
	if last.Mean <= first.Mean {
		t.Fatalf("root share did not grow: %.2f%% (d=%v) vs %.2f%% (d=%v)", first.Mean, first.X, last.Mean, last.X)
	}
}

func TestRunHeaderAblation(t *testing.T) {
	s := run(t, headerAblation, DriverOpts{Trials: 4, Seed: 7, Sim: smallSim()}).Series[0]
	if len(s.Points) != len(headerAddrsPerFlit) || s.Points[0].X != 0 {
		t.Fatalf("points %+v", s.Points)
	}
	// Encoding 127 destinations adds extra flits on the pipeline tail:
	// latency must not shrink below the ideal single-flit header.
	ideal := s.Points[0]
	for _, encoded := range s.Points[1:] {
		if encoded.Mean < ideal.Mean {
			t.Fatalf("%v addrs/flit header faster than ideal: %.3f vs %.3f", encoded.X, encoded.Mean, ideal.Mean)
		}
	}
}
