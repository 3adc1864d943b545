package experiment

import (
	"reflect"
	"testing"
)

func TestRunFaultSweep(t *testing.T) {
	series := run(t, faultSweep, DriverOpts{Trials: 2, Messages: 200, Seed: 17, Sim: smallSim()}).Series
	if len(series) != 5 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(faultMTBFUs) {
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
	}
	// The fault-free baseline delivers everything at full availability.
	if d := series[3].Points[0].Mean; d != 100 {
		t.Fatalf("baseline delivered%% = %v", d)
	}
	if a := series[4].Points[0].Mean; a != 100 {
		t.Fatalf("baseline availability%% = %v", a)
	}
	if lat := series[0].Points[0].Mean; lat <= 0 {
		t.Fatalf("baseline latency %v", lat)
	}
	if series[1].Points[0].N != 0 {
		t.Fatalf("fault-free baseline has disrupted-latency samples")
	}
	// The dense-fault end must actually be disturbed: availability below
	// 100, and retried deliveries observed with higher latency than the
	// undisturbed stream.
	dense := len(faultMTBFUs) - 1
	if a := series[4].Points[dense].Mean; a >= 100 || a <= 0 {
		t.Fatalf("dense-fault availability%% = %v, want (0, 100)", a)
	}
	if d, u := series[1].Points[dense].Mean, series[0].Points[dense].Mean; d <= u {
		t.Fatalf("disrupted latency %v not above undisturbed %v at the dense-fault point", d, u)
	}
}

// TestFaultSweepWorkersGolden pins serial == parallel for the fault sweep:
// identical output for 1, 4 and 8 worker goroutines.
func TestFaultSweepWorkersGolden(t *testing.T) {
	o := DriverOpts{Trials: 2, Messages: 100, Seed: 17, Workers: 1, Sim: smallSim()}
	golden := run(t, faultSweep, o)
	for _, workers := range []int{4, 8} {
		o.Workers = workers
		if got := run(t, faultSweep, o); !reflect.DeepEqual(got, golden) {
			t.Fatalf("fault sweep with %d workers drifts from serial golden", workers)
		}
	}
}
