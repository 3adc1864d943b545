package updown

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// bruteAncestor checks u ->down-tree*-> v by walking parents from v.
func bruteAncestor(l *Labeling, u, v topology.NodeID) bool {
	for x := v; ; x = l.Parent[x] {
		if x == u {
			return true
		}
		if x < 0 || l.Parent[x] < 0 && x != u {
			return x == u
		}
		if l.Parent[x] < 0 {
			return false
		}
	}
}

// bruteExtendedAncestor does a DFS over down-cross channels from u, then
// checks tree ancestry from every reached node.
func bruteExtendedAncestor(l *Labeling, u, v topology.NodeID) bool {
	seen := map[topology.NodeID]bool{}
	stack := []topology.NodeID{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] {
			continue
		}
		seen[x] = true
		if bruteAncestor(l, x, v) {
			return true
		}
		for _, c := range l.Net.Out(x) {
			if l.ClassOf[c] == DownCross {
				stack = append(stack, l.Net.Chan(c).Dst)
			}
		}
	}
	return false
}

func randomLabelings(t *testing.T, trials int) []*Labeling {
	t.Helper()
	var out []*Labeling
	for seed := uint64(0); int(seed) < trials; seed++ {
		n := 4 + int(seed)*7%40
		net, err := topology.RandomLattice(topology.DefaultLattice(n, seed*13+1))
		if err != nil {
			t.Fatal(err)
		}
		strategies := []RootStrategy{RootMinID, RootMaxDegree, RootCenter}
		l, err := New(net, strategies[int(seed)%3])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

// Property: Verify passes on random lattices with all root strategies.
func TestVerifyOnRandomLattices(t *testing.T) {
	for _, l := range randomLabelings(t, 20) {
		if err := l.Verify(); err != nil {
			t.Fatalf("n=%d root=%d: %v", l.Net.NumSwitches, l.Root, err)
		}
	}
}

// Property: the bitset ancestor relations agree with brute-force search.
func TestAncestorRelationsMatchBruteForce(t *testing.T) {
	r := rng.New(555)
	for _, l := range randomLabelings(t, 10) {
		total := l.Net.N()
		for trial := 0; trial < 60; trial++ {
			u := topology.NodeID(r.Intn(total))
			v := topology.NodeID(r.Intn(total))
			if got, want := l.IsAncestor(u, v), bruteAncestor(l, u, v); got != want {
				t.Fatalf("n=%d IsAncestor(%d,%d)=%v brute=%v", l.Net.NumSwitches, u, v, got, want)
			}
			if got, want := l.IsExtendedAncestor(u, v), bruteExtendedAncestor(l, u, v); got != want {
				t.Fatalf("n=%d IsExtendedAncestor(%d,%d)=%v brute=%v", l.Net.NumSwitches, u, v, got, want)
			}
		}
	}
}

// Property: LCA agrees with the brute-force "walk both up" on random pairs,
// and is an ancestor of both arguments, and no child of it is.
func TestLCAProperties(t *testing.T) {
	r := rng.New(777)
	for _, l := range randomLabelings(t, 10) {
		total := l.Net.N()
		for trial := 0; trial < 60; trial++ {
			a := topology.NodeID(r.Intn(total))
			b := topology.NodeID(r.Intn(total))
			lca := l.LCA(a, b)
			if !l.IsAncestor(lca, a) || !l.IsAncestor(lca, b) {
				t.Fatalf("LCA(%d,%d)=%d is not a common ancestor", a, b, lca)
			}
			// Deepest: no child of lca is a common ancestor.
			for _, c := range l.ChildChans[lca] {
				kid := l.Net.Chan(c).Dst
				if l.IsAncestor(kid, a) && l.IsAncestor(kid, b) {
					t.Fatalf("LCA(%d,%d)=%d not deepest: child %d works", a, b, lca, kid)
				}
			}
		}
	}
}

// Property: every up channel's reverse is a down channel and vice versa.
func TestClassReversePairing(t *testing.T) {
	for _, l := range randomLabelings(t, 10) {
		for i := range l.Net.Channels {
			ch := &l.Net.Channels[i]
			rev := l.ClassOf[ch.Reverse]
			switch l.ClassOf[i] {
			case Up:
				if rev != DownTree && rev != DownCross {
					t.Fatalf("up channel %d reverse class %v", i, rev)
				}
			case DownTree, DownCross:
				if rev != Up {
					t.Fatalf("down channel %d reverse class %v", i, rev)
				}
			}
		}
	}
}

// Property: from every switch there is a pure-up path to the root (the up
// sub-network is "rooted"): repeatedly following any up channel must be able
// to reach the root. We check the stronger statement that following the
// tree-parent up channel chain reaches the root.
func TestUpPathsReachRoot(t *testing.T) {
	for _, l := range randomLabelings(t, 10) {
		for v := 0; v < l.Net.N(); v++ {
			x := topology.NodeID(v)
			steps := 0
			for x != l.Root {
				p := l.Parent[x]
				up := l.Net.Chan(l.ParentChan[x]).Reverse
				if l.ClassOf[up] != Up {
					t.Fatalf("reverse of parent chan of %d is %v", x, l.ClassOf[up])
				}
				x = p
				if steps++; steps > l.Net.N() {
					t.Fatalf("parent chain from %d does not terminate", v)
				}
			}
		}
	}
}

// Property: extended ancestors are a superset of ancestors (the set
// accessors range over switches), and the root is an extended ancestor of
// every node.
func TestExtendedSupersetProperty(t *testing.T) {
	for _, l := range randomLabelings(t, 10) {
		for v := 0; v < l.Net.N(); v++ {
			if v < l.Net.NumSwitches && !l.ExtendedAncestors(topology.NodeID(v)).Contains(l.Ancestors(topology.NodeID(v))) {
				t.Fatalf("switch %d: extAnc does not contain anc", v)
			}
			if !l.IsExtendedAncestor(l.Root, topology.NodeID(v)) {
				t.Fatalf("root not extended ancestor of %d", v)
			}
		}
	}
}
