package topology_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/topology"
	"repro/internal/updown"
)

func TestFatTreeStructure(t *testing.T) {
	cases := []struct {
		k, levels, procsPerLeaf            int
		wantSwitches, wantLinks, wantProcs int
	}{
		{2, 2, 0, 4, 4, 4},
		{2, 3, 0, 12, 16, 8},
		{4, 2, 0, 8, 16, 16},
		{3, 3, 1, 27, 54, 9},
	}
	for _, c := range cases {
		net, err := topology.FatTree(c.k, c.levels, c.procsPerLeaf)
		if err != nil {
			t.Fatalf("FatTree(%d,%d,%d): %v", c.k, c.levels, c.procsPerLeaf, err)
		}
		st := topology.ComputeStats(net)
		if st.Switches != c.wantSwitches || st.SwitchLinks != c.wantLinks || st.Processors != c.wantProcs {
			t.Errorf("FatTree(%d,%d,%d): got switches=%d links=%d procs=%d, want %d/%d/%d",
				c.k, c.levels, c.procsPerLeaf,
				st.Switches, st.SwitchLinks, st.Processors,
				c.wantSwitches, c.wantLinks, c.wantProcs)
		}
		if !reachesAll(net) {
			t.Errorf("FatTree(%d,%d): disconnected", c.k, c.levels)
		}
		if net.Coords == nil {
			t.Errorf("FatTree(%d,%d): no coordinates", c.k, c.levels)
		}
	}

	// Stage degrees of a k-ary n-tree: top k, middle 2k, leaf k.
	net, err := topology.FatTree(2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	perLevel := 4
	for sw := 0; sw < net.NumSwitches; sw++ {
		stage := sw / perLevel // 0 = top
		want := 4              // middle: 2k
		if stage == 0 || stage == 2 {
			want = 2 // top and leaf: k
		}
		if d := len(net.SwitchOut(topology.NodeID(sw))); d != want {
			t.Errorf("switch %d (stage %d): degree %d, want %d", sw, stage, d, want)
		}
	}

	if _, err := topology.FatTree(1, 3, 0); err == nil {
		t.Error("FatTree(1,3): want arity error")
	}
	if _, err := topology.FatTree(2, 1, 0); err == nil {
		t.Error("FatTree(2,1): want levels error")
	}
}

func TestZooConstructorsDeterministic(t *testing.T) {
	builders := map[string]func() (*topology.Network, error){
		"fattree":   func() (*topology.Network, error) { return topology.FatTree(2, 3, 0) },
		"torus":     func() (*topology.Network, error) { return topology.Torus(4, 5, 1) },
		"hypercube": func() (*topology.Network, error) { return topology.Hypercube(4, 1) },
		"lattice": func() (*topology.Network, error) {
			return topology.RandomLattice(topology.DefaultLattice(48, 7))
		},
	}
	for name, build := range builders {
		a, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a.Channels, b.Channels) || !reflect.DeepEqual(a.Coords, b.Coords) {
			t.Errorf("%s: two builds differ", name)
		}
	}
}

func TestSpecParseStringRoundTrip(t *testing.T) {
	good := []string{
		"lattice:128", "gnm:64+32", "mesh:8x8", "torus:8x8", "torus:8x8/2",
		"hypercube:6", "fattree:4x3", "fattree:2x3/1", "file:nets/a.adj",
	}
	for _, s := range good {
		sp, err := topology.ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if got := sp.String(); got != s {
			t.Errorf("ParseSpec(%q).String() = %q", s, got)
		}
	}
	bad := []string{"", "torus", "torus:8", "ring:8", "lattice:0", "mesh:8x", "torus:8x8/0", "gnm:64", "file:"}
	for _, s := range bad {
		if _, err := topology.ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q): want error", s)
		}
	}
}

func TestSpecBuildMatchesPrediction(t *testing.T) {
	specs := []string{"lattice:48", "gnm:32+16", "mesh:4x6", "torus:4x5", "hypercube:5", "fattree:2x3", "fattree:3x2/2"}
	for _, s := range specs {
		sp, err := topology.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(11)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if want := sp.Switches(); net.NumSwitches != want {
			t.Errorf("%s: built %d switches, Switches() predicts %d", s, net.NumSwitches, want)
		}
		if !reachesAll(net) {
			t.Errorf("%s: disconnected", s)
		}
	}
}

// TestSpecBuildRejectsOverflow: dimensions whose product overflows an int
// predict no switch count and fail to build, rather than wrapping to a
// tiny count and then indexing out of range or allocating without bound.
func TestSpecBuildRejectsOverflow(t *testing.T) {
	for _, s := range []string{"mesh:4611686018427387905x4", "torus:4611686018427387905x4"} {
		sp, err := topology.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		if n := sp.Switches(); n != -1 {
			t.Errorf("%s: Switches() = %d, want -1", s, n)
		}
		if _, err := sp.Build(1); err == nil {
			t.Errorf("%s: Build succeeded", s)
		}
	}
}

func TestAdjacencyRoundTrip(t *testing.T) {
	nets := map[string]func() (*topology.Network, error){
		"lattice": func() (*topology.Network, error) {
			return topology.RandomLattice(topology.DefaultLattice(32, 3))
		},
		"fattree": func() (*topology.Network, error) { return topology.FatTree(2, 3, 2) },
		"torus":   func() (*topology.Network, error) { return topology.Torus(3, 4, 1) },
	}
	for name, build := range nets {
		orig, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text := topology.FormatAdjacency(orig)
		loaded, err := topology.LoadAdjacency(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: LoadAdjacency: %v", name, err)
		}
		if !reflect.DeepEqual(orig.Channels, loaded.Channels) {
			t.Errorf("%s: channels differ after round-trip", name)
		}
		if !reflect.DeepEqual(orig.Coords, loaded.Coords) {
			t.Errorf("%s: coords differ after round-trip", name)
		}
		if orig.NumProcs != loaded.NumProcs {
			t.Errorf("%s: procs %d != %d", name, orig.NumProcs, loaded.NumProcs)
		}
		for p := 0; p < orig.NumProcs; p++ {
			id := topology.NodeID(orig.NumSwitches + p)
			if orig.SwitchOf(id) != loaded.SwitchOf(id) {
				t.Errorf("%s: processor %d attached to %d, loaded %d",
					name, p, orig.SwitchOf(id), loaded.SwitchOf(id))
			}
		}
		// Round-trip is a fixpoint: formatting the loaded network is
		// byte-identical.
		if text2 := topology.FormatAdjacency(loaded); text2 != text {
			t.Errorf("%s: second format differs from first", name)
		}
	}
}

func TestLoadAdjacencyErrors(t *testing.T) {
	cases := []string{
		"",
		"link 0 1",
		"switches 2\nswitches 2",
		"switches 2\nlink 0 1\nbogus 1",
		"switches 2\nlink 0 2",
		"switches 3\nlink 0 1\nproc 0", // switch 2 disconnected
		// Oversized declarations are refused at the switches directive,
		// before any proportional allocation: the admission cap specs get
		// cannot be bypassed via an adjacency upload.
		fmt.Sprintf("switches %d\nlink 0 1\nproc 0", topology.MaxAdmittedSwitches+1),
		// So is a proc line whose count would take the network past
		// topology.MaxAdmittedNodes, before it attaches a processor.
		"switches 1\nproc 0 2000000000",
		"switches 1\nproc 0 9223372036854775807",
		fmt.Sprintf("switches 2\nlink 0 1\nproc 0 %d\nproc 1 1", topology.MaxAdmittedNodes-2),
	}
	for _, in := range cases {
		if _, err := topology.LoadAdjacency(strings.NewReader(in)); err == nil {
			t.Errorf("LoadAdjacency(%q): want error", in)
		}
	}
}

// TestZooDeadlockFree certifies the acceptance property: every topology
// family routes deadlock-free under up*/down* — the labeling invariants
// hold and the unicast channel dependency graph is acyclic (topological
// certificate), for every root strategy.
func TestZooDeadlockFree(t *testing.T) {
	specs := []string{"fattree:2x3", "fattree:4x2", "torus:4x4", "torus:3x5", "hypercube:4", "mesh:4x4", "gnm:40+20", "lattice:48"}
	strategies := []updown.RootStrategy{updown.RootMinID, updown.RootMaxDegree, updown.RootCenter}
	for _, s := range specs {
		sp, err := topology.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(5)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for _, strat := range strategies {
			lab, err := updown.New(net, strat)
			if err != nil {
				t.Fatalf("%s (%v): %v", s, strat, err)
			}
			if err := deadlock.VerifyStatic(lab); err != nil {
				t.Errorf("%s (%v): labeling invariant: %v", s, strat, err)
			}
			adj := deadlock.BuildCDG(core.NewRouter(lab))
			order, err := deadlock.ChannelOrder(adj)
			if err != nil {
				t.Errorf("%s (%v): CDG cyclic: %v", s, strat, err)
				continue
			}
			for a, outs := range adj {
				for _, b := range outs {
					if order[topology.ChannelID(a)] >= order[b] {
						t.Errorf("%s (%v): dependency %d->%d not rank-increasing", s, strat, a, b)
					}
				}
			}
		}
	}
}

// reachesAll reports whether one search from switch 0 reaches every switch.
func reachesAll(net *topology.Network) bool {
	dist, queue := make([]int32, net.NumSwitches), make([]int32, net.NumSwitches)
	return net.SwitchDistances(0, nil, dist, queue) == net.NumSwitches
}
