package experiment

import "testing"

func TestRunPruneComparisonSmall(t *testing.T) {
	series := run(t, pruneComparison, DriverOpts{Trials: 2, Seed: 77}).Series
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(lengthSweepFlits) {
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mean < 10 {
				t.Fatalf("series %q mean %.2f below startup", s.Label, p.Mean)
			}
		}
	}
	// Pruning pays a fresh startup per retry round, so under contention it
	// is slower than SPAM's waiting at every length. How the gap moves with
	// length is checked on a smaller network in internal/prune.
	spam, pr := series[0], series[1]
	for i := range spam.Points {
		if pr.Points[i].Mean <= spam.Points[i].Mean {
			t.Fatalf("prune+retry not slower than SPAM at %v flits: %.2f vs %.2f",
				spam.Points[i].X, pr.Points[i].Mean, spam.Points[i].Mean)
		}
	}
}
