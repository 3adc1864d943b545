package topology

import (
	"slices"
	"testing"
)

func mustFig1(t *testing.T) *Network {
	t.Helper()
	n, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFigure1Shape(t *testing.T) {
	n := mustFig1(t)
	if n.NumSwitches != 6 || n.NumProcs != 5 {
		t.Fatalf("fig1: %d switches %d procs", n.NumSwitches, n.NumProcs)
	}
	// 6 switch links + 5 processor links = 11 pairs = 22 channels.
	if len(n.Channels) != 22 {
		t.Fatalf("fig1 channels=%d want 22", len(n.Channels))
	}
	if got := len(n.ProcessorsOf(4)); got != 3 {
		t.Fatalf("switch 4 has %d procs want 3", got)
	}
	if n.SwitchOf(6) != 1 {
		t.Fatalf("proc 6 attached to %d want 1", n.SwitchOf(6))
	}
}

func TestKindsAndIDSpaces(t *testing.T) {
	n := mustFig1(t)
	for id := NodeID(0); int(id) < n.N(); id++ {
		isSw := int(id) < n.NumSwitches
		if n.IsSwitch(id) != isSw || n.IsProcessor(id) == isSw {
			t.Fatalf("node %d kind confusion", id)
		}
		if isSw && n.Kind(id) != Switch {
			t.Fatalf("node %d kind=%v", id, n.Kind(id))
		}
		if !isSw && n.Kind(id) != Processor {
			t.Fatalf("node %d kind=%v", id, n.Kind(id))
		}
	}
	if n.IsSwitch(-1) || n.IsSwitch(NodeID(n.N())) {
		t.Fatal("out-of-range IsSwitch true")
	}
	if Switch.String() != "switch" || Processor.String() != "processor" {
		t.Fatal("NodeKind strings wrong")
	}
}

func TestChannelPairing(t *testing.T) {
	n := mustFig1(t)
	for i, c := range n.Channels {
		id := ChannelID(i)
		rev := n.Chan(id.Reverse())
		if rev.Src != c.Dst || rev.Dst != c.Src || id.Reverse().Reverse() != id {
			t.Fatalf("channel %d pairing broken: %+v / %+v", id, c, rev)
		}
	}
}

func TestOutInConsistency(t *testing.T) {
	n := mustFig1(t)
	for id := NodeID(0); int(id) < n.N(); id++ {
		for _, c := range n.Out(id) {
			if n.Chan(c).Src != id {
				t.Fatalf("out list of %d contains channel with src %d", id, n.Chan(c).Src)
			}
		}
		// The reverses of a node's out channels are its in channels.
		for _, c := range n.Out(id) {
			if rev := n.Chan(c.Reverse()); rev.Dst != id || rev.Src != n.Chan(c).Dst {
				t.Fatalf("channel %d out of %d reverses to %+v", c, id, rev)
			}
		}
	}
	// Every channel appears in exactly one out list and one in list.
	seenOut := map[ChannelID]int{}
	for id := NodeID(0); int(id) < n.N(); id++ {
		for _, c := range n.Out(id) {
			seenOut[c]++
		}
	}
	if len(seenOut) != len(n.Channels) {
		t.Fatalf("out lists cover %d channels want %d", len(seenOut), len(n.Channels))
	}
}

func TestChannelBetween(t *testing.T) {
	n := mustFig1(t)
	c := n.ChannelBetween(0, 1)
	if c == None {
		t.Fatal("no channel 0->1")
	}
	if n.Chan(c).Src != 0 || n.Chan(c).Dst != 1 {
		t.Fatalf("wrong channel %+v", n.Chan(c))
	}
	if n.ChannelBetween(0, 5) != None {
		t.Fatal("phantom channel 0->5")
	}
}

func TestBuilderRejectsDisconnected(t *testing.T) {
	b := NewBuilder(4, 8)
	b.Link(0, 1)
	b.Link(2, 3)
	if _, err := b.Build(); err == nil {
		t.Fatal("disconnected switch graph accepted")
	}
}

func TestBuilderRejectsPortOverflow(t *testing.T) {
	// Star with 4 links + 2 procs = 6 ports; budget 5 must fail.
	b := NewBuilder(5, 5)
	for i := 1; i < 5; i++ {
		b.Link(0, i)
	}
	b.AttachProcessor(0)
	b.AttachProcessor(0)
	if _, err := b.Build(); err == nil {
		t.Fatal("port overflow accepted")
	}
	// Same with budget 6 must pass.
	b2 := NewBuilder(5, 6)
	for i := 1; i < 5; i++ {
		b2.Link(0, i)
	}
	b2.AttachProcessor(0)
	b2.AttachProcessor(0)
	if _, err := b2.Build(); err != nil {
		t.Fatalf("budget 6 rejected: %v", err)
	}
}

func TestBuilderRejectsBadProcessorAttachment(t *testing.T) {
	b := NewBuilder(2, 8)
	b.Link(0, 1)
	b.AttachProcessor(7)
	if _, err := b.Build(); err == nil {
		t.Fatal("invalid attachment accepted")
	}
}

func TestBuilderRejectsDuplicateLink(t *testing.T) {
	b := NewBuilder(2, 8)
	b.Link(0, 1)
	b.Link(1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate link accepted")
	}
}

func TestBuilderRejectsNoSwitches(t *testing.T) {
	if _, err := NewBuilder(0, 8).Build(); err == nil {
		t.Fatal("zero switches accepted")
	}
}

func TestRandomLatticeProperties(t *testing.T) {
	for _, nsw := range []int{1, 2, 16, 128} {
		for seed := uint64(0); seed < 4; seed++ {
			n, err := RandomLattice(DefaultLattice(nsw, seed))
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", nsw, seed, err)
			}
			if n.NumSwitches != nsw || n.NumProcs != nsw {
				t.Fatalf("n=%d seed=%d: got %d/%d", nsw, seed, n.NumSwitches, n.NumProcs)
			}
			if !reachesAll(n) {
				t.Fatalf("n=%d seed=%d: disconnected", nsw, seed)
			}
			// Lattice adjacency: at most 4 switch links per switch.
			for sw := 0; sw < nsw; sw++ {
				if d := len(n.SwitchOut(NodeID(sw))); d > 4 {
					t.Fatalf("switch %d degree %d > 4", sw, d)
				}
				if p := n.Ports(NodeID(sw)); p > 8 {
					t.Fatalf("switch %d ports %d > 8", sw, p)
				}
			}
			// Edges only between lattice-adjacent coordinates.
			for k := 0; k < n.Links(); k++ {
				u, v := n.Link(k)
				a, b := n.Coords[u], n.Coords[v]
				dx, dy := a[0]-b[0], a[1]-b[1]
				if dx*dx+dy*dy != 1 {
					t.Fatalf("link {%d,%d} not lattice-adjacent: %v %v", u, v, a, b)
				}
			}
		}
	}
}

func TestRandomLatticeDeterministic(t *testing.T) {
	a, err := RandomLattice(DefaultLattice(64, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomLattice(DefaultLattice(64, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Channels, b.Channels) {
		t.Fatalf("links differ:\n%v\nvs\n%v", a.Channels, b.Channels)
	}
}

func TestRandomLatticeSeedsDiffer(t *testing.T) {
	a, _ := RandomLattice(DefaultLattice(64, 1))
	b, _ := RandomLattice(DefaultLattice(64, 2))
	if slices.Equal(a.Channels, b.Channels) {
		t.Fatal("different seeds produced identical lattices")
	}
}

func TestRandomLatticeErrors(t *testing.T) {
	if _, err := RandomLattice(DefaultLattice(0, 1)); err == nil {
		t.Fatal("0 switches accepted")
	}
	cfg := DefaultLattice(4, 1)
	cfg.ProcsPerSwitch = -1
	if _, err := RandomLattice(cfg); err == nil {
		t.Fatal("negative procs accepted")
	}
}

func TestMesh(t *testing.T) {
	n, err := Mesh(4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumSwitches != 12 || n.NumProcs != 12 {
		t.Fatalf("mesh counts: %d/%d", n.NumSwitches, n.NumProcs)
	}
	// Corner has degree 2, interior 4.
	if d := len(n.SwitchOut(0)); d != 2 {
		t.Fatalf("corner degree %d", d)
	}
	if d := len(n.SwitchOut(5)); d != 4 {
		t.Fatalf("interior degree %d", d)
	}
	if _, err := Mesh(0, 3, 1); err == nil {
		t.Fatal("bad mesh accepted")
	}
}

func TestTorus(t *testing.T) {
	n, err := Torus(3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for sw := 0; sw < 12; sw++ {
		if d := len(n.SwitchOut(NodeID(sw))); d != 4 {
			t.Fatalf("torus switch %d degree %d", sw, d)
		}
	}
	if _, err := Torus(2, 3, 1); err == nil {
		t.Fatal("degenerate torus accepted")
	}
}

func TestHypercube(t *testing.T) {
	n, err := Hypercube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumSwitches != 16 {
		t.Fatalf("hypercube switches %d", n.NumSwitches)
	}
	for sw := 0; sw < 16; sw++ {
		if d := len(n.SwitchOut(NodeID(sw))); d != 4 {
			t.Fatalf("hypercube degree %d", d)
		}
	}
	if _, err := Hypercube(0, 1); err == nil {
		t.Fatal("dim 0 accepted")
	}
}

func TestComputeStats(t *testing.T) {
	n := mustFig1(t)
	s := ComputeStats(n)
	if s.Switches != 6 || s.Processors != 5 || s.SwitchLinks != 6 || s.Channels != 22 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxPortsUsed > 8 || s.MinDeg < 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestProcessorsOfPanicsOnProcessor(t *testing.T) {
	n := mustFig1(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	n.ProcessorsOf(NodeID(n.NumSwitches)) // a processor ID
}

func TestSwitchOfIdentityForSwitches(t *testing.T) {
	n := mustFig1(t)
	if n.SwitchOf(3) != 3 {
		t.Fatal("SwitchOf(switch) != switch")
	}
}
