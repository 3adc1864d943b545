package topology_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/topology"
)

// FuzzLoadAdjacency is the adjacency loader's input contract: LoadAdjacency
// never panics, every network it accepts stays within the shared admission
// caps, its links are strictly ascending pairs u < v of switches and join
// every switch into one component, and FormatAdjacency of an accepted
// network reloads into a network that formats to the same bytes and has the
// same layout: channel endpoints, Out lists and ProcessorsOf.
func FuzzLoadAdjacency(f *testing.F) {
	for _, spec := range []string{"lattice:16", "gnm:12+6", "mesh:3x3", "torus:3x3/2", "hypercube:3", "fattree:2x3"} {
		sp, err := topology.ParseSpec(spec)
		if err != nil {
			f.Fatal(err)
		}
		net, err := sp.Build(1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(topology.FormatAdjacency(net))
	}
	for _, s := range []string{
		interleavedAdjacency,
		"switches 2\nlink 0 1\nproc 0 3\nproc 1\n",
		"# two processors on one switch\nswitches 1 2\nproc 0 2\n",
		"switches 3 4\nlink 0 1\nlink 1 2\ncoord 0 0 0\ncoord 2 5 -1\nproc 2\n",
		"# links out of order, larger endpoint first\nswitches 4\nlink 3 2\nlink 3 0\nlink 1 0\nlink 2 0\n",
		// Refused: past the switch cap, past the node cap, a directive
		// before the switches line, an over-budget port count, a self-loop,
		// a duplicate link (reversed, and repeated after other links), a
		// link endpoint below 0 or past the last switch, a processor on a
		// missing switch, a coordinate out of range and a disconnected
		// switch graph.
		"switches 65537\n",
		"switches 2\nlink 0 1\nproc 0 1048575\n",
		"link 0 1\nswitches 2\n",
		"switches 2 1\nlink 0 1\nproc 0\n",
		"switches 2\nlink 0 0\n",
		"switches 2\nlink 0 1\nlink 1 0\n",
		"switches 4\nlink 2 0\nlink 0 1\nlink 3 2\nlink 0 2\n",
		"switches 2\nlink -1 1\nlink 0 1\n",
		"switches 2\nlink 0 1\nlink 1 2\n",
		"switches 2\nlink 0 1\nproc 2\n",
		"switches 2\nlink 0 1\ncoord 2 0 0\n",
		"switches 3\nlink 0 1\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		net, err := topology.LoadAdjacency(strings.NewReader(s))
		if err != nil {
			return
		}
		if net.NumSwitches > topology.MaxAdmittedSwitches || net.N() > topology.MaxAdmittedNodes {
			t.Fatalf("accepted %d switches and %d nodes, caps %d and %d",
				net.NumSwitches, net.N(), topology.MaxAdmittedSwitches, topology.MaxAdmittedNodes)
		}
		// Union-find over the link list, independent of the builder's
		// checks and its search.
		comp := make([]int, net.NumSwitches)
		for i := range comp {
			comp[i] = i
		}
		find := func(x int) int {
			for comp[x] != x {
				comp[x] = comp[comp[x]]
				x = comp[x]
			}
			return x
		}
		components := net.NumSwitches
		var prevU, prevV topology.NodeID = -1, -1
		for k := 0; k < net.Links(); k++ {
			u, v := net.Link(k)
			if u < 0 || u >= v || int(v) >= net.NumSwitches {
				t.Fatalf("link %d is {%d,%d}, want 0 <= u < v < %d", k, u, v, net.NumSwitches)
			}
			if u < prevU || (u == prevU && v <= prevV) {
				t.Fatalf("link %d {%d,%d} does not follow {%d,%d}", k, u, v, prevU, prevV)
			}
			prevU, prevV = u, v
			if a, b := find(int(u)), find(int(v)); a != b {
				comp[a] = b
				components--
			}
		}
		if components != 1 {
			t.Fatalf("accepted a switch graph of %d components", components)
		}
		text := topology.FormatAdjacency(net)
		back, err := topology.LoadAdjacency(strings.NewReader(text))
		if err != nil {
			t.Fatalf("formatted network does not reload: %v\n%s", err, text)
		}
		if again := topology.FormatAdjacency(back); again != text {
			t.Fatalf("reloaded network formats differently:\n%s\nvs\n%s", text, again)
		}
		if !slices.Equal(back.Channels, net.Channels) {
			t.Fatalf("reloaded network's channels differ:\n%v\nvs\n%v", back.Channels, net.Channels)
		}
		for v := topology.NodeID(0); int(v) < net.N(); v++ {
			if !slices.Equal(back.Out(v), net.Out(v)) {
				t.Fatalf("node %d: reloaded Out %v, accepted %v", v, back.Out(v), net.Out(v))
			}
			if net.IsSwitch(v) && !slices.Equal(back.ProcessorsOf(v), net.ProcessorsOf(v)) {
				t.Fatalf("switch %d: reloaded ProcessorsOf %v, accepted %v", v, back.ProcessorsOf(v), net.ProcessorsOf(v))
			}
		}
	})
}
