package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

func faultyTestRunner(t *testing.T, switches int, seed uint64) *Runner {
	t.Helper()
	net, err := topology.RandomLattice(topology.DefaultLattice(switches, seed))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(core.NewRouter(lab), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func stormWorkload(messages int) Faulty {
	return Faulty{
		Inner: Mixed{RatePerProcPerUs: 0.05, MulticastFraction: 0.1, MulticastDests: 4, Messages: messages},
		Spec: faults.Spec{
			Profile:   faults.ProfilePoisson,
			Seed:      9,
			HorizonNs: 400_000,
			MTBFNs:    4_000_000,
			MTTRNs:    80_000,
		},
		Policy: faults.Policy{MaxRetries: 3, RetryDelayNs: 10_000},
	}
}

// TestFaultyMeasureDeterministic pins the whole measurement stack under
// faults: two independent runners produce identical summaries, and the
// injector metrics replay exactly.
func TestFaultyMeasureDeterministic(t *testing.T) {
	w := stormWorkload(400)
	r1 := faultyTestRunner(t, 32, 3)
	r2 := faultyTestRunner(t, 32, 3)
	s1, err := Measure(r1, w, MeasureOpts{Trials: 3, WarmupMessages: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Measure(r2, w, MeasureOpts{Trials: 3, WarmupMessages: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Count() == 0 {
		t.Fatal("no measurements")
	}
	if s1.Count() != s2.Count() || s1.Mean() != s2.Mean() || s1.Quantile(0.99) != s2.Quantile(0.99) || s1.CI95() != s2.CI95() {
		t.Fatalf("fault measurement not deterministic:\n%v\n%v", s1, s2)
	}
	m1, m2 := r1.FaultInjector().Metrics(), r2.FaultInjector().Metrics()
	if m1.EventsApplied == 0 || m1.WormsAborted == 0 {
		t.Fatalf("storm had no effect: %+v", m1)
	}
	if m1.EventsApplied != m2.EventsApplied || m1.WormsAborted != m2.WormsAborted ||
		m1.WormsRetried != m2.WormsRetried || m1.DownLinkNs != m2.DownLinkNs {
		t.Fatalf("injector metrics drift:\n%+v\n%+v", m1, m2)
	}
}

// TestFaultyThenCleanTrialMatchesFresh pins pooled-runner safety: after a
// fault trial (runner now on its private, once-mutated router), a clean
// trial is bit-identical to the same trial on a never-injected runner.
func TestFaultyThenCleanTrialMatchesFresh(t *testing.T) {
	clean := Mixed{RatePerProcPerUs: 0.04, MulticastFraction: 0.1, MulticastDests: 4, Messages: 250}

	dirty := faultyTestRunner(t, 32, 3)
	if err := dirty.Trial(stormWorkload(300), 77); err != nil {
		t.Fatal(err)
	}
	if dirty.FaultInjector() == nil || dirty.FaultInjector().Metrics().EventsApplied == 0 {
		t.Fatal("fault trial did not inject")
	}
	if err := dirty.Trial(clean, 123); err != nil {
		t.Fatal(err)
	}
	dirtyLats := dirty.AppendLatenciesUs(nil, 0)

	fresh := faultyTestRunner(t, 32, 3)
	if err := fresh.Trial(clean, 123); err != nil {
		t.Fatal(err)
	}
	freshLats := fresh.AppendLatenciesUs(nil, 0)
	if len(dirtyLats) != len(freshLats) || len(dirtyLats) == 0 {
		t.Fatalf("latency counts differ: %d vs %d", len(dirtyLats), len(freshLats))
	}
	for i := range dirtyLats {
		if dirtyLats[i] != freshLats[i] {
			t.Fatalf("post-fault runner diverges from fresh at %d: %v vs %v", i, dirtyLats[i], freshLats[i])
		}
	}
	if a, b := dirty.Sim().Counters(), fresh.Sim().Counters(); a != b {
		t.Fatalf("counters diverge:\n%+v\n%+v", a, b)
	}
}

// TestFaultTrialSteadyStateAllocs is the PR's alloc guard: once warm, a
// whole fault-storm trial — traffic generation, drains, retries, relabels
// and table swaps included — allocates nothing.
func TestFaultTrialSteadyStateAllocs(t *testing.T) {
	r := faultyTestRunner(t, 32, 3)
	// Box the workload once: the guard measures the engine, not the
	// caller's interface conversion.
	var w Workload = stormWorkload(300)
	for i := 0; i < 3; i++ { // warm every arena, pool and map bucket
		if err := r.Trial(w, 77); err != nil {
			t.Fatal(err)
		}
	}
	if m := r.FaultInjector().Metrics(); m.EventsApplied == 0 || m.WormsAborted == 0 {
		t.Fatalf("storm vacuous, guard proves nothing: %+v", m)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := r.Trial(w, 77); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.5 {
		t.Fatalf("fault trial loop allocates %.1f allocs/op in steady state, want 0", avg)
	}
}

// TestFaultSweepSmallZoo runs the two pre-wired fault scenarios over five
// small zoo topologies: fault-storm at fault seeds 1–3 and maintenance
// (which takes no seed), each at multicast fractions 0.1 and 0.3 with 8
// destinations, one 400-message trial per configuration. Every mutation
// drains every launched worm before the swap, so no worm ever waits under
// a labeling other than the one it holds channels under: every trial must
// finish without an engine error (no route loss, stall or wait cycle), and
// every abort is either retried or lost. Maintenance windows drain busy
// switches, so each of its configurations must abort something.
func TestFaultSweepSmallZoo(t *testing.T) {
	const seed = 1998
	for _, topo := range []string{"lattice:64", "gnm:48+24", "torus:6x6", "fattree:4x2", "mesh:6x6"} {
		sp, err := topology.ParseSpec(topo)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := updown.New(net, updown.RootMinID)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(core.NewRouter(lab), sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			scenario string
			seeds    []uint64
		}{{"fault-storm", []uint64{1, 2, 3}}, {"maintenance", []uint64{0}}} {
			sc, _ := Lookup(c.scenario)
			for _, fs := range c.seeds {
				for _, mf := range []float64{0.1, 0.3} {
					p := Params{Messages: 400, MulticastFraction: mf, MulticastDests: 8, FaultSeed: fs}
					name := fmt.Sprintf("%s/%s/seed=%d/mcast=%v", topo, c.scenario, fs, mf)
					if err := r.Trial(sc.New(p), seed); err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					met := r.FaultInjector().Metrics()
					if met.WormsAborted != met.WormsRetried+met.MessagesLost {
						t.Errorf("%s: aborted=%d != retried=%d + lost=%d",
							name, met.WormsAborted, met.WormsRetried, met.MessagesLost)
					}
					if c.scenario == "maintenance" && met.WormsAborted == 0 {
						t.Errorf("%s: maintenance windows aborted nothing", name)
					}
				}
			}
		}
	}
}

// TestFaultScenarioRegistry pins the registered fault scenarios and the
// parameter plumbing.
func TestFaultScenarioRegistry(t *testing.T) {
	for _, name := range []string{"fault-storm", "maintenance"} {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		w := sc.New(Params{Messages: 150})
		f, ok := w.(Faulty)
		if !ok {
			t.Fatalf("%q did not build a Faulty workload", name)
		}
		if got := Budget(f, 24); got != 150 {
			t.Fatalf("%q budget %d", name, got)
		}
		r := faultyTestRunner(t, 24, 1)
		if err := r.Trial(w, 3); err != nil {
			t.Fatalf("%q trial: %v", name, err)
		}
		if r.FaultInjector().Metrics().EventsApplied == 0 {
			t.Fatalf("%q applied no fault events", name)
		}
	}

	// Generic composition: any scenario + fault params.
	sc, _ := Lookup("hotspot")
	w, err := ApplyFaults(sc.New(Params{Messages: 120}), Params{
		Messages: 120, FaultScript: "30us down 0-1; 90us up 0-1", FaultRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, ok := w.(Faulty)
	if !ok {
		t.Fatal("ApplyFaults did not wrap")
	}
	if f.Policy.MaxRetries != 0 {
		t.Fatalf("policy mapping: %+v", f.Policy)
	}
	r := faultyTestRunner(t, 24, 2)
	if err := r.Trial(w, 3); err != nil {
		t.Fatal(err)
	}

	// Bad strings are client errors.
	if _, err := ApplyFaults(sc.New(Params{}), Params{FaultProfile: "nope"}); err == nil {
		t.Fatal("bad profile accepted")
	}
	if _, err := ApplyFaults(sc.New(Params{}), Params{FaultScript: "x"}); err == nil {
		t.Fatal("malformed script accepted")
	}
}
