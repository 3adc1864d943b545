package updown

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
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
			for _, c := range l.Children(lca) {
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
			rev := l.ClassOf[topology.ChannelID(i).Reverse()]
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
				up := l.ParentChan[x].Reverse()
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

// Property: ancestry implies extended ancestry for every node pair, and the
// root is an extended ancestor of every node.
func TestExtendedSupersetProperty(t *testing.T) {
	for _, l := range randomLabelings(t, 10) {
		n := l.Net.N()
		for v := 0; v < n; v++ {
			vn := topology.NodeID(v)
			for u := 0; u < n; u++ {
				un := topology.NodeID(u)
				if l.IsAncestor(un, vn) && !l.IsExtendedAncestor(un, vn) {
					t.Fatalf("n=%d: %d is an ancestor of %d but not an extended ancestor", l.Net.NumSwitches, u, v)
				}
			}
			if !l.IsExtendedAncestor(l.Root, vn) {
				t.Fatalf("root not extended ancestor of %d", v)
			}
		}
	}
}

// failLinks relabels l under a mask of k failed links, added greedily in
// channel order, each kept only if the switches stay connected.
func failLinks(t *testing.T, l *Labeling, k int) {
	t.Helper()
	net := l.Net
	mask := bitset.New(len(net.Channels))
	for ci, ch := range net.Channels {
		if k == 0 {
			break
		}
		c := topology.ChannelID(ci)
		if c > c.Reverse() || !net.IsSwitch(ch.Src) || !net.IsSwitch(ch.Dst) {
			continue
		}
		mask.Set(ci)
		mask.Set(int(c.Reverse()))
		if l.Relabel(mask) == nil {
			k--
			continue
		}
		mask.Clear(ci)
		mask.Clear(int(c.Reverse()))
	}
	if k > 0 {
		t.Fatalf("%d links short: no more can fail without disconnecting the switches", k)
	}
	if err := l.Relabel(mask); err != nil {
		t.Fatal(err)
	}
}

// checkExtendedDescendantRows compares every bit of the bulk extended-
// descendant rows with IsExtendedAncestor's walk, and checks that no bit
// past the last switch is set.
func checkExtendedDescendantRows(t *testing.T, label string, l *Labeling) {
	t.Helper()
	s := l.Net.NumSwitches
	nw := (s + 63) / 64
	rows := make([]uint64, s*nw)
	for i := range rows {
		rows[i] = ^uint64(0) // stale words must be overwritten
	}
	l.ExtendedDescendantRows(rows, make([]int32, s))
	for u := 0; u < s; u++ {
		row := rows[u*nw : (u+1)*nw]
		for w := 0; w < nw*64; w++ {
			got := row[w/64]>>uint(w%64)&1 != 0
			want := w < s && l.IsExtendedAncestor(topology.NodeID(u), topology.NodeID(w))
			if got != want {
				t.Fatalf("%s: row %d bit %d is %v, IsExtendedAncestor says %v", label, u, w, got, want)
			}
		}
	}
}

// Property: the extended-descendant rows the table compiler reads equal
// IsExtendedAncestor on every switch pair — on random lattices, on every zoo
// family under every root strategy, and after a fault-masked Relabel. The
// zoo sizes cover one-word and multi-word rows, and switch counts with and
// without processor bits in the last switch word.
func TestExtendedDescendantRowsMatchWalk(t *testing.T) {
	for i, l := range randomLabelings(t, 10) {
		checkExtendedDescendantRows(t, fmt.Sprintf("random %d", i), l)
	}
	for _, spec := range []string{"lattice:100", "gnm:70+30", "mesh:9x8", "torus:8x8", "hypercube:7", "fattree:4x3"} {
		sp, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(1998)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []RootStrategy{RootMinID, RootMaxDegree, RootCenter} {
			label := fmt.Sprintf("%s/%v", spec, strat)
			l, err := New(net, strat)
			if err != nil {
				t.Fatal(err)
			}
			checkExtendedDescendantRows(t, label, l)
			failLinks(t, l, 1)
			checkExtendedDescendantRows(t, label+"/masked", l)
		}
	}
}

// checkAllSwitchDistances compares AllSwitchDistances with one
// SwitchDistances row per switch, checks that a live channel's two ends lie
// within one hop of each other from every switch, and that the call
// allocates nothing once the caller owns the scratch.
func checkAllSwitchDistances(t *testing.T, label string, l *Labeling) {
	t.Helper()
	net := l.Net
	s := net.NumSwitches
	dist := make([]int32, s*s)
	words := make([]uint64, 3*s)
	frontier := make([]int32, 2*s)
	for i := range dist {
		dist[i] = 12345 // stale entries must be overwritten
	}
	for i := range words {
		words[i] = ^uint64(0)
	}
	l.AllSwitchDistances(dist, words, frontier)
	want := make([]int32, s)
	queue := make([]int32, s)
	for u := 0; u < s; u++ {
		l.SwitchDistances(topology.NodeID(u), want, queue)
		for v, d := range want {
			if got := dist[u*s+v]; got != d {
				t.Fatalf("%s: d(%d, %d) = %d, SwitchDistances says %d", label, u, v, got, d)
			}
		}
	}
	for ci, ch := range net.Channels {
		if !net.IsSwitch(ch.Src) || !net.IsSwitch(ch.Dst) || l.IsDown(topology.ChannelID(ci)) {
			continue
		}
		for lca := 0; lca < s; lca++ {
			if d := dist[int(ch.Dst)*s+lca] - dist[int(ch.Src)*s+lca]; d < -1 || d > 1 {
				t.Fatalf("%s: live channel %d→%d: d(end, %d) − d(at, %d) = %d", label, ch.Src, ch.Dst, lca, lca, d)
			}
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { l.AllSwitchDistances(dist, words, frontier) }); allocs != 0 {
		t.Fatalf("%s: AllSwitchDistances allocates %.0f times per call", label, allocs)
	}
}

// Property: the 64-source BFS fills the same distance matrix as one
// single-source BFS per switch — on lattices of 2, 63, 64, 65 and 130
// switches (part of a batch, just under, exactly and just over one, and
// three batches), on every zoo family, on a long-diameter mesh, and under
// one and three failed links.
func TestAllSwitchDistancesMatchSingleSource(t *testing.T) {
	for _, n := range []int{2, 63, 64, 65, 130} {
		net, err := topology.RandomLattice(topology.DefaultLattice(n, uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		l, err := New(net, RootMinID)
		if err != nil {
			t.Fatal(err)
		}
		checkAllSwitchDistances(t, fmt.Sprintf("lattice of %d", n), l)
	}
	for _, spec := range []string{"lattice:100", "gnm:70+30", "mesh:9x8", "torus:8x8", "hypercube:7", "fattree:4x3", "mesh:2x512"} {
		sp, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(1998)
		if err != nil {
			t.Fatal(err)
		}
		l, err := New(net, RootMaxDegree)
		if err != nil {
			t.Fatal(err)
		}
		checkAllSwitchDistances(t, spec, l)
		for _, k := range []int{1, 3} {
			failLinks(t, l, k)
			checkAllSwitchDistances(t, fmt.Sprintf("%s with %d failed links", spec, k), l)
		}
	}
}
