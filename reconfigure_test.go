package spamnet

import (
	"testing"

	"repro/internal/deadlock"
	"repro/internal/topology"
)

// switchLinks lists a network's switch–switch links in link order.
func switchLinks(net *topology.Network) [][2]int {
	out := make([][2]int, net.Links())
	for k := range out {
		u, v := net.Link(k)
		out[k] = [2]int{int(u), int(v)}
	}
	return out
}

func TestReconfigureAfterLinkFailure(t *testing.T) {
	sys, err := NewLattice(32, WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first spanning-tree link of the root — the most disruptive
	// single failure — if the network survives it; otherwise fail a cross
	// link. Find a removable link by trial.
	var failed [2]int
	found := false
	for _, e := range switchLinks(sys.Topology()) {
		if _, err := sys.Topology().WithoutLink(e[0], e[1]); err == nil {
			failed = e
			found = true
			break
		}
	}
	if !found {
		t.Skip("every link is a bridge in this lattice")
	}
	sys2, err := sys.Reconfigure([][2]int{failed})
	if err != nil {
		t.Fatal(err)
	}
	if sys2.Topology().Links() != sys.Topology().Links()-1 {
		t.Fatal("link not removed")
	}
	// The relabeled network must pass the full static battery.
	if err := deadlock.VerifyStatic(sys2.Labeling()); err != nil {
		t.Fatal(err)
	}
	// And traffic must still flow everywhere.
	sess, err := sys2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procs := sys2.Processors()
	w, err := sess.Multicast(0, procs[0], procs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Completed() {
		t.Fatal("broadcast incomplete after reconfiguration")
	}
}

func TestReconfigureRejectsDisconnection(t *testing.T) {
	sys, err := NewLattice(16, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	// Find a bridge: removing it must be rejected.
	for _, e := range switchLinks(sys.Topology()) {
		if _, err := sys.Topology().WithoutLink(e[0], e[1]); err != nil {
			// Confirmed rejection path.
			if _, err := sys.Reconfigure([][2]int{e}); err == nil {
				t.Fatal("disconnecting reconfiguration accepted")
			}
			return
		}
	}
	t.Skip("no bridge in this lattice")
}

func TestReconfigureRejectsBogusLink(t *testing.T) {
	sys, err := NewLattice(8, WithSeed(14))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Reconfigure([][2]int{{0, 0}}); err == nil {
		t.Fatal("self-link removal accepted")
	}
	if _, err := sys.Reconfigure([][2]int{{0, 999}}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}

func TestReconfigureSequence(t *testing.T) {
	// Remove several links one after another; each step must stay valid.
	sys, err := NewLattice(48, WithSeed(15))
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for removed < 4 {
		var next [2]int
		found := false
		for _, e := range switchLinks(sys.Topology()) {
			if _, err := sys.Topology().WithoutLink(e[0], e[1]); err == nil {
				next = e
				found = true
				break
			}
		}
		if !found {
			break
		}
		sys, err = sys.Reconfigure([][2]int{next})
		if err != nil {
			t.Fatal(err)
		}
		removed++
	}
	if removed == 0 {
		t.Skip("lattice is a tree already")
	}
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procs := sys.Processors()
	w, err := sess.Multicast(0, procs[3], procs[10:20])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Completed() {
		t.Fatalf("multicast incomplete after %d removals", removed)
	}
}

// removableLinks returns up to max switch-switch links that can be removed
// one after another without disconnecting the network (each candidate is
// checked against the network with the previous ones already gone).
func removableLinks(t *testing.T, sys *System, max int) [][2]int {
	t.Helper()
	var out [][2]int
	net := sys.Topology()
	for len(out) < max {
		found := false
		for _, e := range switchLinks(net) {
			if next, err := net.WithoutLink(e[0], e[1]); err == nil {
				out = append(out, e)
				net = next
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	return out
}

func TestReconfigureMultipleFailedLinks(t *testing.T) {
	sys, err := NewLattice(48, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	links := removableLinks(t, sys, 3)
	if len(links) < 3 {
		t.Skip("lattice too sparse for a 3-link failure")
	}
	sys2, err := sys.Reconfigure(links)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sys2.Topology().Links(), sys.Topology().Links()-3; got != want {
		t.Fatalf("%d links after batch removal, want %d", got, want)
	}
	if err := sys2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Traffic still flows everywhere on the relabeled survivor network.
	sess, err := sys2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procs := sys2.Processors()
	w, err := sess.Multicast(0, procs[1], procs[2:])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Completed() {
		t.Fatal("broadcast incomplete after multi-link reconfiguration")
	}
	// The original System is untouched.
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureMultiLinkBatchWithDisconnectingLink(t *testing.T) {
	sys, err := NewLattice(32, WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	links := removableLinks(t, sys, 1)
	if len(links) == 0 {
		t.Skip("lattice is a tree already")
	}
	// After removing every removable link one by one, the survivor network
	// is a spanning tree: any further removal disconnects. Build a batch
	// whose prefix is fine but whose final link is a bridge.
	all := removableLinks(t, sys, 1<<30)
	survivor := sys.Topology()
	for _, e := range all {
		var err error
		survivor, err = survivor.WithoutLink(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
	}
	bridge := switchLinks(survivor)[0]
	batch := append(append([][2]int{}, all...), bridge)
	if _, err := sys.Reconfigure(batch); err == nil {
		t.Fatal("batch ending in a disconnecting link accepted")
	}
	// The failed batch must not have mutated the original System.
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procs := sys.Processors()
	if _, err := sess.Multicast(0, procs[0], procs[1:4]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureInFlightSessionsFinishOnOldSystem(t *testing.T) {
	sys, err := NewLattice(48, WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	links := removableLinks(t, sys, 2)
	if len(links) < 2 {
		t.Skip("lattice too sparse")
	}
	// Start a session with traffic in flight: run only partway (startup
	// has elapsed, worms are mid-network).
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procs := sys.Processors()
	old, err := sess.Multicast(0, procs[0], procs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunUntil(10_500); err != nil {
		t.Fatal(err)
	}
	if old.Completed() {
		t.Fatal("test needs the old-system worm still in flight")
	}

	// Reconfigure while the session is mid-run.
	sys2, err := sys.Reconfigure(links)
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := sys2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procs2 := sys2.Processors()
	w2, err := sess2.Multicast(0, procs2[3], procs2[4:12])
	if err != nil {
		t.Fatal(err)
	}

	// The in-flight session finishes on the old System's routing tables,
	// unaffected by the new System's existence.
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !old.Completed() {
		t.Fatal("in-flight worm lost by reconfiguration")
	}
	want, err := sys.ZeroLoadLatency(procs[0], procs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if old.Latency() != want {
		t.Fatalf("old-session latency %d deviates from old-system closed form %d", old.Latency(), want)
	}
	if err := sess2.Run(); err != nil {
		t.Fatal(err)
	}
	if !w2.Completed() {
		t.Fatal("new-system traffic incomplete")
	}
	// And the old session remains reusable after the old System was
	// superseded.
	sess.Reset()
	again, err := sess.Multicast(0, procs[0], procs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if again.Latency() != want {
		t.Fatalf("reset old session latency %d want %d", again.Latency(), want)
	}
}
