package core

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/updown"
)

func fig1Router(t *testing.T) *Router {
	t.Helper()
	net, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.NewWithRoot(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewRouter(lab)
}

// Figure-1 ID map (paper -> ours): switches 1..4,6,7 -> 0..5;
// processors 5 -> 6, 8 -> 7, 9 -> 8, 10 -> 9, 11 -> 10.

func TestPaperExampleLCA(t *testing.T) {
	r := fig1Router(t)
	// Multicast from paper node 5 to {8,9,10,11}: LCA is paper node 4 = 3.
	if got := r.LCASwitch([]topology.NodeID{7, 8, 9, 10}); got != 3 {
		t.Fatalf("LCA switch = %d want 3", got)
	}
}

func TestPaperExamplePhase1Path(t *testing.T) {
	r := fig1Router(t)
	// The paper gives 5,2,3,4 (our 6,1,2,3) as one legal path: up from the
	// processor, then two down-cross channels.
	path, err := r.Phase1Path(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckLegalUnicastPath(6, 3, path); err != nil {
		t.Fatal(err)
	}
	// The greedy selection takes 6 -> 1 (injection), then the down-cross
	// 1->2, then down-cross 2->3: exactly the paper's example path.
	want := []topology.NodeID{1, 2, 3}
	at := topology.NodeID(6)
	if len(path) != 3 {
		t.Fatalf("path length %d: %v", len(path), path)
	}
	for i, c := range path {
		ch := r.Net.Chan(c)
		if ch.Src != at || ch.Dst != want[i] {
			t.Fatalf("hop %d: %d->%d, want ->%d", i, ch.Src, ch.Dst, want[i])
		}
		at = ch.Dst
	}
}

func TestPaperExampleDistribution(t *testing.T) {
	r := fig1Router(t)
	ds, err := r.DestSet([]topology.NodeID{7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	// At the LCA (switch 3), the worm must request the two down-tree
	// channels to switches 4 and 6 (paper nodes 6 and 7).
	outs := r.DistributionOutputs(3, ds)
	if len(outs) != 2 {
		t.Fatalf("distribution outputs at LCA: %v", outs)
	}
	dsts := map[topology.NodeID]bool{}
	for _, c := range outs {
		dsts[r.Net.Chan(c).Dst] = true
	}
	if !dsts[4] || !dsts[5] {
		t.Fatalf("LCA fan-out goes to %v, want switches 4 and 5", dsts)
	}
	// At switch 4 (paper 6): three consumption channels to procs 7, 8, 9.
	outs4 := r.DistributionOutputs(4, ds)
	if len(outs4) != 3 {
		t.Fatalf("switch 4 outputs: %v", outs4)
	}
	// At switch 5 (paper 7): one consumption channel to proc 10.
	outs5 := r.DistributionOutputs(5, ds)
	if len(outs5) != 1 || r.Net.Chan(outs5[0]).Dst != 10 {
		t.Fatalf("switch 5 outputs: %v", outs5)
	}
}

func TestDistributionSkipsNonDestinations(t *testing.T) {
	r := fig1Router(t)
	ds, _ := r.DestSet([]topology.NodeID{10}) // only paper node 11
	outs := r.DistributionOutputs(3, ds)
	if len(outs) != 1 || r.Net.Chan(outs[0]).Dst != 5 {
		t.Fatalf("outputs toward single dest: %v", outs)
	}
	if got := r.DistributionOutputs(4, ds); len(got) != 0 {
		t.Fatalf("switch 4 should have no outputs, got %v", got)
	}
}

func TestUnicastReducesToConsumption(t *testing.T) {
	r := fig1Router(t)
	// Unicast to proc 7: LCA switch is 4; distribution there is just the
	// consumption channel.
	lca := r.LCASwitch([]topology.NodeID{7})
	if lca != 4 {
		t.Fatalf("unicast LCA switch %d", lca)
	}
	ds, _ := r.DestSet([]topology.NodeID{7})
	outs := r.DistributionOutputs(lca, ds)
	if len(outs) != 1 || r.Net.Chan(outs[0]).Dst != 7 {
		t.Fatalf("unicast distribution %v", outs)
	}
}

func TestCandidateOrderingByDistance(t *testing.T) {
	r := fig1Router(t)
	cands := r.CandidateOutputs(0, ArriveInjection, 3)
	if len(cands) == 0 {
		t.Fatal("no candidates at root toward 3")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].DistToLCA > cands[i].DistToLCA {
			t.Fatalf("candidates not sorted: %+v", cands)
		}
	}
	// Best candidate endpoint must be strictly closer than `at` unless at
	// distance 1 already.
	best := r.Net.Chan(cands[0].Channel).Dst
	dist := make([]int32, r.Net.NumSwitches)
	r.Lab.SwitchDistances(3, dist, make([]int32, r.Net.NumSwitches))
	if dist[best] >= dist[0] {
		t.Fatalf("greedy candidate does not approach the LCA: %+v", cands[0])
	}
}

func TestCandidateRespectsArrivalClass(t *testing.T) {
	r := fig1Router(t)
	// After arriving on a down-cross channel, up channels are forbidden.
	for _, c := range r.CandidateOutputs(2, ArriveDownCross, 3) {
		if r.Lab.ClassOf[c.Channel] == updown.Up {
			t.Fatalf("up channel offered after down-cross arrival: %+v", c)
		}
	}
	// After a down-tree arrival, only down-tree channels remain.
	for _, c := range r.CandidateOutputs(2, ArriveDownTree, 3) {
		if r.Lab.ClassOf[c.Channel] != updown.DownTree {
			t.Fatalf("non-tree channel offered after tree arrival: %+v", c)
		}
	}
}

func TestDestSetValidation(t *testing.T) {
	r := fig1Router(t)
	if _, err := r.DestSet(nil); err == nil {
		t.Fatal("empty dest set accepted")
	}
	if _, err := r.DestSet([]topology.NodeID{3}); err == nil {
		t.Fatal("switch destination accepted")
	}
	if _, err := r.DestSet([]topology.NodeID{7, 7}); err == nil {
		t.Fatal("duplicate destination accepted")
	}
	if _, err := r.DestSet([]topology.NodeID{7, 8}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeReach(t *testing.T) {
	r := fig1Router(t)
	// Dests {7,8,9,10}: LCA 3; channels 3->4, 3->5, 4->7, 4->8, 4->9,
	// 5->10 = 6 channels.
	n, err := r.TreeReach([]topology.NodeID{7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("TreeReach=%d want 6", n)
	}
	// Single destination on its own switch: 1 consumption channel.
	n, _ = r.TreeReach([]topology.NodeID{6})
	if n != 1 {
		t.Fatalf("TreeReach single=%d want 1", n)
	}
}

func TestPaperParamsAndValidate(t *testing.T) {
	p := PaperParams()
	if p.StartupNs != 10000 || p.RouterSetupNs != 40 || p.ChanPropNs != 10 || p.MessageFlits != 128 {
		t.Fatalf("paper params %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.MessageFlits = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("1-flit message accepted")
	}
	bad = p
	bad.ChanPropNs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero propagation accepted")
	}
	bad = p
	bad.StartupNs = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative startup accepted")
	}
}

func TestZeroLoadLatencyClosedForm(t *testing.T) {
	r := fig1Router(t)
	p := PaperParams()
	// Unicast 6 -> 7 (paper 5 -> 8): greedy path 6,1,2,3 then tree 3->4->7:
	// channels = [6->1, 1->2, 2->3, 3->4, 4->7] = 5 hops, 4 routers.
	lat, err := r.ZeroLoadLatency(p, 6, []topology.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	want := p.StartupNs + 4*p.RouterSetupNs + 5*p.ChanPropNs + int64(p.MessageFlits-1)*p.ChanPropNs
	if lat != want {
		t.Fatalf("zero-load latency %d want %d", lat, want)
	}
	// Multicast to all four far processors is governed by the same depth.
	lat4, err := r.ZeroLoadLatency(p, 6, []topology.NodeID{7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if lat4 != want {
		t.Fatalf("multicast zero-load latency %d want %d (same depth)", lat4, want)
	}
}

func TestMulticastPathsConnected(t *testing.T) {
	r := fig1Router(t)
	paths, err := r.MulticastPaths(6, []topology.NodeID{7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	for d, path := range paths {
		at := topology.NodeID(6)
		for _, c := range path {
			ch := r.Net.Chan(c)
			if ch.Src != at {
				t.Fatalf("dest %d: discontinuous path", d)
			}
			at = ch.Dst
		}
		if at != d {
			t.Fatalf("path for %d ends at %d", d, at)
		}
	}
}

func TestPhase1PathErrors(t *testing.T) {
	r := fig1Router(t)
	if _, err := r.Phase1Path(3, 3); err == nil {
		t.Fatal("switch source accepted")
	}
	if _, err := r.Phase1Path(6, 7); err == nil {
		t.Fatal("processor LCA accepted")
	}
}

func TestCheckLegalUnicastPathRejections(t *testing.T) {
	r := fig1Router(t)
	if err := r.CheckLegalUnicastPath(6, 3, nil); err == nil {
		t.Fatal("empty path accepted")
	}
	// A path that goes up after a down-cross: 6->1 (up), 1->2 (cross),
	// 2->1?? reverse of 1->2 is up: craft [6->1, 1->2, 2->0].
	up20 := r.Net.ChannelBetween(2, 0)
	inj := r.Net.ChannelBetween(6, 1)
	cross := r.Net.ChannelBetween(1, 2)
	err := r.CheckLegalUnicastPath(6, 0, []topology.ChannelID{inj, cross, up20})
	if err == nil {
		t.Fatal("up-after-cross path accepted")
	}
	// Discontinuous path.
	err = r.CheckLegalUnicastPath(6, 3, []topology.ChannelID{cross})
	if err == nil {
		t.Fatal("discontinuous path accepted")
	}
}

func TestArrivalOfMapping(t *testing.T) {
	if ArrivalOf(updown.Up) != ArriveUp ||
		ArrivalOf(updown.DownCross) != ArriveDownCross ||
		ArrivalOf(updown.DownTree) != ArriveDownTree {
		t.Fatal("ArrivalOf mapping wrong")
	}
	if ArriveInjection.String() != "injection" || ArriveUp.String() != "up" {
		t.Fatal("arrival strings wrong")
	}
}
