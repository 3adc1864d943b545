package topology_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/topology"
)

// interleavedAdjacency attaches processors between link lines, with links
// named larger endpoint first, so the builder's ordering (switch pairs
// sorted, processors after them in attach order) is what the layout shows.
const interleavedAdjacency = `switches 6 8
proc 3
link 4 1
proc 0 2
link 0 1
link 5 2
proc 5
link 3 2
link 1 3
proc 1
link 2 0
coord 0 0 0
proc 3
`

// TestNetworkLayoutGolden pins a built network's layout: every channel's
// endpoints and every node's Out list, SwitchOf, ProcessorsOf, Ports and
// FormatAdjacency bytes, hashed per network into
// testdata/network_layout.golden. It also checks the layout contract
// documented on Network directly: channels 2k and 2k+1 are the two
// directions of one link; switch pairs come first in sorted edge order,
// then one pair per processor in processor order, down channel first; a
// switch's Out lists its switch neighbours in ascending ID, then its
// processors in attach order; a processor's Out is its one up channel.
func TestNetworkLayoutGolden(t *testing.T) {
	type entry struct {
		name string
		net  *topology.Network
	}
	var nets []entry
	for _, spec := range []string{"lattice:64", "gnm:64+16", "mesh:8x8", "torus:8x8/2", "hypercube:6", "fattree:4x3"} {
		sp, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(7)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, entry{spec, net})
	}
	fig1, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, entry{"figure1", fig1})
	adj, err := topology.LoadAdjacency(strings.NewReader(interleavedAdjacency))
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, entry{"interleaved-adjacency", adj})

	var got strings.Builder
	for _, e := range nets {
		checkLayoutContract(t, e.name, e.net)
		fmt.Fprintf(&got, "%s switches=%d procs=%d channels=%d sha256=%x\n",
			e.name, e.net.NumSwitches, e.net.NumProcs, len(e.net.Channels), layoutHash(e.net))
	}
	want, err := os.ReadFile("testdata/network_layout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("network layout drifted from testdata/network_layout.golden:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// layoutHash digests everything a caller can read of a network's layout.
func layoutHash(n *topology.Network) []byte {
	h := sha256.New()
	for i, ch := range n.Channels {
		fmt.Fprintf(h, "c%d %d>%d\n", i, ch.Src, ch.Dst)
	}
	for v := topology.NodeID(0); int(v) < n.N(); v++ {
		fmt.Fprintf(h, "n%d out=%v switch=%d\n", v, n.Out(v), n.SwitchOf(v))
		if n.IsSwitch(v) {
			fmt.Fprintf(h, "procs=%v ports=%d\n", n.ProcessorsOf(v), n.Ports(v))
		}
	}
	h.Write([]byte(topology.FormatAdjacency(n)))
	return h.Sum(nil)
}

func checkLayoutContract(t *testing.T, name string, n *topology.Network) {
	t.Helper()
	if len(n.Channels)%2 != 0 {
		t.Fatalf("%s: odd channel count %d", name, len(n.Channels))
	}
	links := len(n.Channels)/2 - n.NumProcs
	for k := 0; k < len(n.Channels)/2; k++ {
		a, b := n.Channels[2*k], n.Channels[2*k+1]
		if a.Src != b.Dst || a.Dst != b.Src {
			t.Fatalf("%s: channels %d and %d are not one link's two directions: %+v %+v", name, 2*k, 2*k+1, a, b)
		}
		if k < links {
			if !n.IsSwitch(a.Src) || !n.IsSwitch(a.Dst) || a.Src >= a.Dst {
				t.Fatalf("%s: pair %d (%d>%d) is not a switch link, smaller endpoint first", name, k, a.Src, a.Dst)
			}
			if k > 0 {
				p := n.Channels[2*k-2]
				if p.Src > a.Src || (p.Src == a.Src && p.Dst >= a.Dst) {
					t.Fatalf("%s: switch pairs %d and %d out of sorted edge order", name, k-1, k)
				}
			}
			continue
		}
		proc := topology.NodeID(n.NumSwitches + k - links)
		if a.Dst != proc || a.Src != n.SwitchOf(proc) {
			t.Fatalf("%s: pair %d is %d>%d, want processor %d's link down from switch %d", name, k, a.Src, a.Dst, proc, n.SwitchOf(proc))
		}
	}
	for v := topology.NodeID(0); int(v) < n.N(); v++ {
		out := n.Out(v)
		if n.IsProcessor(v) {
			if len(out) != 1 || n.Channels[out[0]].Dst != n.SwitchOf(v) || out[0]%2 != 1 {
				t.Fatalf("%s: processor %d Out %v is not its one up channel", name, v, out)
			}
			continue
		}
		procs := n.ProcessorsOf(v)
		nsw := len(out) - len(procs)
		if nsw < 0 || n.Ports(v) != len(out) {
			t.Fatalf("%s: switch %d has %d out channels, %d processors and %d ports", name, v, len(out), len(procs), n.Ports(v))
		}
		for i, c := range out {
			ch := n.Channels[c]
			if ch.Src != v {
				t.Fatalf("%s: switch %d Out holds channel %d from %d", name, v, c, ch.Src)
			}
			if i < nsw {
				if !n.IsSwitch(ch.Dst) || (i > 0 && n.Channels[out[i-1]].Dst >= ch.Dst) {
					t.Fatalf("%s: switch %d Out %v: switch neighbours not first in ascending ID", name, v, out)
				}
			} else if ch.Dst != procs[i-nsw] {
				t.Fatalf("%s: switch %d Out %v: processors not last in attach order %v", name, v, out, procs)
			}
		}
	}
}
