package topology

import "testing"

func TestWithoutLinkBasic(t *testing.T) {
	n, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 has the cycle 0-1-2, so link {1,2} is removable.
	n2, err := n.WithoutLink(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n2.ChannelBetween(1, 2) != None {
		t.Fatal("link still present")
	}
	if n2.Links() != n.Links()-1 {
		t.Fatal("edge count wrong")
	}
	// Processors unchanged, attachments preserved.
	if n2.NumProcs != n.NumProcs {
		t.Fatal("processors changed")
	}
	for p := n.NumSwitches; p < n.N(); p++ {
		if n2.SwitchOf(NodeID(p)) != n.SwitchOf(NodeID(p)) {
			t.Fatalf("processor %d moved", p)
		}
	}
	// Original untouched.
	if n.ChannelBetween(1, 2) == None {
		t.Fatal("original network mutated")
	}
}

func TestWithoutLinkRejectsBridge(t *testing.T) {
	n, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// Link {3,4} (our 3 to paper-6) is a bridge: switch 4 would detach.
	if _, err := n.WithoutLink(3, 4); err == nil {
		t.Fatal("bridge removal accepted")
	}
}

func TestWithoutLinkRejectsMissingOrBad(t *testing.T) {
	n, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.WithoutLink(0, 5); err == nil {
		t.Fatal("missing link accepted")
	}
	if _, err := n.WithoutLink(-1, 2); err == nil {
		t.Fatal("negative switch accepted")
	}
	if _, err := n.WithoutLink(0, 100); err == nil {
		t.Fatal("out-of-range switch accepted")
	}
}

func TestWithoutLinkPreservesCoords(t *testing.T) {
	n, err := RandomLattice(DefaultLattice(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	var removable [2]int
	found := false
	for k := 0; k < n.Links() && !found; k++ {
		u, v := n.Link(k)
		removable = [2]int{int(u), int(v)}
		_, err := n.WithoutLink(removable[0], removable[1])
		found = err == nil
	}
	if !found {
		t.Skip("tree lattice")
	}
	n2, err := n.WithoutLink(removable[0], removable[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(n2.Coords) != len(n.Coords) {
		t.Fatal("coords lost")
	}
	for i := range n.Coords {
		if n2.Coords[i] != n.Coords[i] {
			t.Fatal("coords changed")
		}
	}
}
