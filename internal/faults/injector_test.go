package faults

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

func testRig(t *testing.T, switches int, seed uint64) (*topology.Network, *updown.Labeling, *sim.Simulator) {
	t.Helper()
	net, err := topology.RandomLattice(topology.DefaultLattice(switches, seed))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(core.NewRouter(lab), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return net, lab, s
}

// submitStream drives a deterministic unicast+multicast stream and returns
// the worms.
func submitStream(t *testing.T, s *sim.Simulator, net *topology.Network, n int, seed uint64) []*sim.Worm {
	t.Helper()
	r := rng.New(seed)
	proc := func(i int) topology.NodeID { return topology.NodeID(net.NumSwitches + i) }
	var out []*sim.Worm
	for i := 0; i < n; i++ {
		src := proc(r.Intn(net.NumProcs))
		var dests []topology.NodeID
		if r.Bool(0.25) {
			for _, d := range r.Choose(net.NumProcs, 4) {
				if proc(d) != src {
					dests = append(dests, proc(d))
				}
			}
		}
		if len(dests) == 0 {
			d := (int(src) - net.NumSwitches + 1 + r.Intn(net.NumProcs-1)) % net.NumProcs
			dests = append(dests, proc(d))
		}
		w, err := s.Submit(int64(i)*1_000, src, dests)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

type runResult struct {
	completed, aborted int
	latencies          []int64
	counters           sim.Counters
	met                Metrics
	avail              float64
}

func runFaultTrial(t *testing.T, s *sim.Simulator, inj *Injector, net *topology.Network, script Script, pol Policy, msgs int, seed uint64) runResult {
	t.Helper()
	s.Reset()
	if err := inj.Install(script, pol); err != nil {
		t.Fatal(err)
	}
	worms := submitStream(t, s, net, msgs, seed)
	if err := s.RunUntilIdle(1e14); err != nil {
		t.Fatalf("run: %v", err)
	}
	if inj.Err() != nil {
		t.Fatalf("injector: %v", inj.Err())
	}
	var res runResult
	for _, w := range worms {
		switch {
		case w.Completed():
			res.completed++
			res.latencies = append(res.latencies, w.Latency())
		case w.Aborted():
			res.aborted++
			res.latencies = append(res.latencies, -w.AbortNs)
		default:
			t.Fatalf("worm %d neither completed nor aborted", w.ID)
		}
	}
	res.counters = s.Counters()
	res.met = *inj.Metrics()
	res.met.DisruptHist = nil // compared via counters; pointer differs per injector
	res.avail = inj.Availability()
	return res
}

// TestDrainSemanticsDeterministic pins the scripted-outage run: every
// message either completes or is aborted, accounting is exact, and the
// whole run replays bit-identically — including across a Reset and on a
// completely fresh simulator (arena-reuse equivalence).
func TestDrainSemanticsDeterministic(t *testing.T) {
	for _, retries := range []int{0, 3} {
		net, _, s := testRig(t, 36, 11)
		inj, err := NewInjector(s)
		if err != nil {
			t.Fatal(err)
		}
		script, err := Parse("40us down 0-1; 70us switch-down 3; 130us switch-up 3; 160us up 0-1")
		if err != nil {
			t.Fatal(err)
		}
		pol := Policy{MaxRetries: retries, RetryDelayNs: 5_000}

		first := runFaultTrial(t, s, inj, net, script, pol, 120, 77)
		if first.met.EventsApplied == 0 {
			t.Fatal("no fault events applied")
		}
		if first.met.WormsAborted == 0 {
			t.Fatal("applied mutations aborted nothing")
		}
		if retries > 0 && first.met.WormsRetried == 0 {
			t.Fatal("retry policy issued no retries")
		}
		if retries == 0 && first.met.WormsRetried != 0 {
			t.Fatal("retries issued with retry disabled")
		}
		if first.met.WormsAborted != first.met.WormsRetried+first.met.MessagesLost {
			t.Fatalf("abort accounting: aborted=%d != retried=%d + lost=%d",
				first.met.WormsAborted, first.met.WormsRetried, first.met.MessagesLost)
		}

		// Replay on the same (Reset) simulator and on a fresh one.
		replay := runFaultTrial(t, s, inj, net, script, pol, 120, 77)
		_, _, s2 := testRig(t, 36, 11)
		inj2, err := NewInjector(s2)
		if err != nil {
			t.Fatal(err)
		}
		fresh := runFaultTrial(t, s2, inj2, net, script, pol, 120, 77)
		for name, other := range map[string]runResult{"reset-replay": replay, "fresh": fresh} {
			if other.completed != first.completed || other.aborted != first.aborted {
				t.Fatalf("%s (retries=%d): outcome drift: %d/%d vs %d/%d",
					name, retries, other.completed, other.aborted, first.completed, first.aborted)
			}
			if other.counters != first.counters {
				t.Fatalf("%s (retries=%d): counters drift:\n%+v\n%+v", name, retries, other.counters, first.counters)
			}
			if other.met != first.met {
				t.Fatalf("%s (retries=%d): metrics drift:\n%+v\n%+v", name, retries, other.met, first.met)
			}
			if other.avail != first.avail {
				t.Fatalf("%s: availability drift %v vs %v", name, other.avail, first.avail)
			}
			for i := range first.latencies {
				if other.latencies[i] != first.latencies[i] {
					t.Fatalf("%s (retries=%d): latency[%d] %d != %d",
						name, retries, i, other.latencies[i], first.latencies[i])
				}
			}
		}
	}
}

// TestInstallMidRunDrains: an Install without a Reset, after an outage
// that never healed, restores the base labeling under a running simulator.
// Like every swap it first drains the launched worms, so no worm routes on
// under a labeling other than the one it holds channels under: the run
// ends without an engine error, and every completed worm reached each of
// its own destinations.
func TestInstallMidRunDrains(t *testing.T) {
	net, _, s := testRig(t, 36, 11)
	inj, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	script, err := Parse("20us down 0-1; 25us switch-down 3")
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Install(script, Policy{}); err != nil {
		t.Fatal(err)
	}
	worms := submitStream(t, s, net, 200, 5)
	if err := s.Run(60_000); err != nil {
		t.Fatal(err)
	}
	var inFlight []*sim.Worm
	for _, w := range worms {
		if w.Launched() && !w.Completed() && !w.Aborted() {
			inFlight = append(inFlight, w)
		}
	}
	if len(inFlight) == 0 {
		t.Fatal("no worm in flight at the mid-run Install")
	}
	if err := inj.Install(nil, Policy{}); err != nil {
		t.Fatal(err)
	}
	for _, w := range inFlight {
		if !w.Aborted() {
			t.Fatalf("worm %d still in flight across the restoring swap", w.ID)
		}
	}
	if err := s.RunUntilIdle(1e14); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, w := range worms {
		if !w.Completed() {
			continue
		}
		for i, at := range w.ArrivalNs {
			if at == 0 {
				t.Fatalf("worm %d completed without reaching destination %d", w.ID, w.Dests[i])
			}
		}
	}
}

// TestResetRestoresBaseRouting pins the arena-reuse contract: a no-fault
// trial after a fault trial (which ended mid-outage) is bit-identical to
// the same trial on a never-injected simulator.
func TestResetRestoresBaseRouting(t *testing.T) {
	net, _, s := testRig(t, 32, 5)
	inj, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	// Outage that never heals: the trial ends with links still down.
	script, err := Parse("30us down 0-1; 55us switch-down 2")
	if err != nil {
		t.Fatal(err)
	}
	runFaultTrial(t, s, inj, net, script, Policy{MaxRetries: 2}, 80, 3)
	if inj.DownLinks() == 0 {
		t.Fatal("expected the trial to end mid-outage")
	}

	// No-fault trial on the dirty-then-reset simulator.
	s.Reset()
	if inj.DownLinks() != 0 {
		t.Fatal("Reset did not restore the base topology")
	}
	worms := submitStream(t, s, net, 80, 9)
	if err := s.RunUntilIdle(1e14); err != nil {
		t.Fatal(err)
	}

	// Reference: same stream on a pristine simulator.
	_, _, s2 := testRig(t, 32, 5)
	ref := submitStream(t, s2, net, 80, 9)
	if err := s2.RunUntilIdle(1e14); err != nil {
		t.Fatal(err)
	}
	for i := range worms {
		if worms[i].Latency() != ref[i].Latency() || worms[i].DoneNs != ref[i].DoneNs {
			t.Fatalf("worm %d: post-fault reset diverges from pristine: %d vs %d",
				i, worms[i].Latency(), ref[i].Latency())
		}
	}
	if a, b := s.Counters(), s2.Counters(); a != b {
		t.Fatalf("counters diverge:\n%+v\n%+v", a, b)
	}
}

// TestDisconnectingEventsRejected pins the reject semantics: a mutation
// that would disconnect the live switch graph is refused and counted, and
// traffic keeps flowing.
func TestDisconnectingEventsRejected(t *testing.T) {
	// A path graph: every link is a bridge.
	b := topology.NewBuilder(4, 8)
	b.Link(0, 1).Link(1, 2).Link(2, 3)
	for sw := 0; sw < 4; sw++ {
		b.AttachProcessor(sw)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(core.NewRouter(lab), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []Event{
		{Kind: LinkDown, U: 1, V: 2},
		{Kind: SwitchDown, U: 0},
		{Kind: LinkDown, U: 0, V: 3},  // no such link
		{Kind: LinkUp, U: 0, V: 1},    // not down
		{Kind: LinkDown, U: 9, V: 11}, // out of range
	} {
		applied, err := inj.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		if applied {
			t.Fatalf("event %v should have been rejected", ev)
		}
	}
	m := inj.Metrics()
	if m.EventsRejected != 5 || m.EventsApplied != 0 || m.Swaps != 0 {
		t.Fatalf("unexpected metrics after rejects: %+v", m)
	}
	// The network still works.
	w, err := s.Submit(0, topology.NodeID(4), []topology.NodeID{5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(1e12); err != nil {
		t.Fatal(err)
	}
	if !w.Completed() {
		t.Fatal("broadcast did not complete")
	}
}

// TestRetryCompletionAccounting pins partial delivery + retry bookkeeping
// on a surgical single-fault scenario.
func TestRetryCompletionAccounting(t *testing.T) {
	net, _, s := testRig(t, 24, 21)
	inj, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	script := Script{{AtNs: 45_000, Kind: SwitchDown, U: 1}, {AtNs: 200_000, Kind: SwitchUp, U: 1}}
	if err := inj.Install(script, Policy{MaxRetries: 5, RetryDelayNs: 8_000}); err != nil {
		t.Fatal(err)
	}
	worms := submitStream(t, s, net, 60, 1234)
	if err := s.RunUntilIdle(1e14); err != nil {
		t.Fatal(err)
	}
	m := inj.Metrics()
	if m.WormsAborted == 0 {
		t.Skip("no worms in flight at the mutation (timing-dependent topology); scenario vacuous")
	}
	// Hard requirements: every original completed or aborted; every abort
	// accounted as retried or lost.
	for i, w := range worms {
		if !w.Completed() && !w.Aborted() {
			t.Fatalf("worm %d in limbo", i)
		}
	}
	if m.WormsAborted != m.WormsRetried+m.MessagesLost {
		t.Fatalf("abort accounting: aborted=%d != retried=%d + lost=%d", m.WormsAborted, m.WormsRetried, m.MessagesLost)
	}
	if inj.Availability() >= 1.0 || inj.Availability() <= 0 {
		t.Fatalf("availability %v out of range for a trial with an outage", inj.Availability())
	}
}

// TestDSLRoundTrip pins the script DSL.
func TestDSLRoundTrip(t *testing.T) {
	in := "50us down 3-7; 80us up 3-7; 100us switch-down 4; 150us switch-up 4"
	script, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(script) != 4 {
		t.Fatalf("got %d events", len(script))
	}
	round, err := Parse(script.DSL())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", script.DSL(), err)
	}
	for i := range script {
		if script[i] != round[i] {
			t.Fatalf("round-trip drift at %d: %v vs %v", i, script[i], round[i])
		}
	}
	for _, bad := range []string{
		"5us explode 1-2", "down 1-2", "5us down 12", "-5us down 1-2", "5us down a-b",
		// IDs past int32, and negative ones, must not wrap onto real switches.
		"1us switch-down 4294967296", "1us down 4294967296-4294967297",
		"1us switch-down 2147483648", "1us down 3--5",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

// TestGenerators pins determinism and well-formedness of the script
// generators.
func TestGenerators(t *testing.T) {
	net, _, _ := testRig(t, 48, 77)
	storm := Spec{Profile: ProfilePoisson, Seed: 3, HorizonNs: 2_000_000, MTBFNs: 5_000_000, MTTRNs: 100_000}
	p1, err := storm.Resolve(net)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := storm.Resolve(net)
	if len(p1) == 0 {
		t.Fatal("poisson generated nothing")
	}
	if len(p1) != len(p2) {
		t.Fatal("poisson not deterministic")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("poisson not deterministic")
		}
	}
	if err := p1.Validate(); err != nil {
		t.Fatal(err)
	}
	// Downs and ups alternate per link.
	state := map[uint64]bool{}
	for _, ev := range p1 {
		key := linkKey(ev.U, ev.V)
		switch ev.Kind {
		case LinkDown:
			if state[key] {
				t.Fatal("double down")
			}
			state[key] = true
		case LinkUp:
			if !state[key] {
				t.Fatal("up of live link")
			}
			state[key] = false
		}
	}

	m, err := Spec{Profile: ProfileMaintenance, StartNs: 10_000, WindowNs: 50_000, GapNs: 20_000}.Resolve(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2*net.NumSwitches {
		t.Fatalf("maintenance generated %d events for %d switches", len(m), net.NumSwitches)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	reg, err := Spec{Profile: ProfileRegional, Center: 0, Radius: 2, StartNs: 5_000, WindowNs: 40_000}.Resolve(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg) == 0 || len(reg)%2 != 0 {
		t.Fatalf("regional generated %d events", len(reg))
	}
	if err := reg.Validate(); err != nil {
		t.Fatal(err)
	}
}
