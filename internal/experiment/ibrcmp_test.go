package experiment

import "testing"

func TestRunIBRComparison(t *testing.T) {
	series := run(t, ibrComparison, DriverOpts{Trials: 2, Seed: 33}).Series
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	spam, ibr := series[0], series[1]
	// IBR is slower at every length, and its penalty grows with message
	// length (store-and-forward pays hops x length).
	for i := range spam.Points {
		if ibr.Points[i].Mean <= spam.Points[i].Mean {
			t.Fatalf("IBR not slower at %v flits: %.2f vs %.2f",
				spam.Points[i].X, ibr.Points[i].Mean, spam.Points[i].Mean)
		}
		if i > 0 {
			gapShort := ibr.Points[i-1].Mean - spam.Points[i-1].Mean
			gapLong := ibr.Points[i].Mean - spam.Points[i].Mean
			if gapLong <= gapShort {
				t.Fatalf("IBR gap did not grow from %v to %v flits: %.2f -> %.2f",
					spam.Points[i-1].X, spam.Points[i].X, gapShort, gapLong)
			}
		}
	}
}
