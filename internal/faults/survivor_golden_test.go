package faults

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestDrainCrossingSurvivorsGolden pins what a worm that survives a
// labeling swap does next. Under DrainCrossing a swap drains only the worms
// on a failed channel, so multicasts in flight elsewhere keep routing under
// the swapped labeling and tables. On TestDrainSemanticsDeterministic's rig
// and script it sends 6-destination multicasts over a unicast background,
// checks that some of them are in the network across every swap, and
// compares every worm's outcome (latency, abort time, or stuck), the run's
// error, the engine counters (RouteLostAborts among them) and the
// injector's abort accounting with testdata/drain_crossing_survivors.golden.
//
// The golden holds a stall: a multicast split before the swap at 130 µs
// carries destinations that the new spanning tree no longer places below
// any of its branches, so nobody delivers them and the run ends in the
// engine's hard-stall error with that worm outstanding.
func TestDrainCrossingSurvivorsGolden(t *testing.T) {
	net, _, s := testRig(t, 36, 11)
	inj, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	script, err := Parse("40us down 0-1; 70us switch-down 3; 130us switch-up 3; 160us up 0-1")
	if err != nil {
		t.Fatal(err)
	}
	startup := s.Config().Params.StartupNs
	var got strings.Builder
	for _, retries := range []int{0, 3} {
		s.Reset()
		if err := inj.Install(script, Policy{Drain: DrainCrossing, MaxRetries: retries, RetryDelayNs: 5_000}); err != nil {
			t.Fatal(err)
		}
		worms := submitSurvivorStream(t, s, net, 240, 21)
		runErr := s.RunUntilIdle(1e14)
		if inj.Err() != nil {
			t.Fatalf("injector: %v", inj.Err())
		}
		for _, ev := range script {
			survivors := 0
			for _, w := range worms {
				if len(w.Dests) >= 4 && w.Completed() && w.InjectStartNs+startup < ev.AtNs && ev.AtNs < w.DoneNs {
					survivors++
				}
			}
			if survivors == 0 {
				t.Fatalf("retries=%d: no multicast is in the network across the swap at %d ns", retries, ev.AtNs)
			}
		}
		met := inj.Metrics()
		fmt.Fprintf(&got, "retries %d\n", retries)
		fmt.Fprintf(&got, "run error %v\n", runErr)
		fmt.Fprintf(&got, "counters %+v\n", s.Counters())
		fmt.Fprintf(&got, "injector applied=%d aborted=%d retried=%d lost=%d\n",
			met.EventsApplied, met.WormsAborted, met.WormsRetried, met.MessagesLost)
		for _, w := range worms {
			switch {
			case w.Completed():
				fmt.Fprintf(&got, "worm %d dests %d latency %d\n", w.ID, len(w.Dests), w.Latency())
			case w.Aborted():
				fmt.Fprintf(&got, "worm %d dests %d abort %d\n", w.ID, len(w.Dests), w.AbortNs)
			default:
				fmt.Fprintf(&got, "worm %d dests %d stuck\n", w.ID, len(w.Dests))
			}
		}
	}
	want, err := os.ReadFile("testdata/drain_crossing_survivors.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("golden line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// submitSurvivorStream submits n messages 600 ns apart: every third is a
// multicast to 6 distinct processors other than its source, the rest are
// unicasts.
func submitSurvivorStream(t *testing.T, s *sim.Simulator, net *topology.Network, n int, seed uint64) []*sim.Worm {
	t.Helper()
	r := rng.New(seed)
	proc := func(i int) topology.NodeID { return topology.NodeID(net.NumSwitches + i) }
	var out []*sim.Worm
	for i := 0; i < n; i++ {
		src := proc(r.Intn(net.NumProcs))
		var dests []topology.NodeID
		if i%3 == 0 {
			for _, d := range r.Choose(net.NumProcs, 7) {
				if proc(d) != src && len(dests) < 6 {
					dests = append(dests, proc(d))
				}
			}
		} else {
			d := (int(src) - net.NumSwitches + 1 + r.Intn(net.NumProcs-1)) % net.NumProcs
			dests = append(dests, proc(d))
		}
		w, err := s.Submit(int64(i)*600, src, dests)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}
