// Command topogen generates and inspects the topology zoo: the paper's
// random irregular lattices plus the regular families (mesh, torus,
// hypercube, fat-tree), G(n,m) irregular networks and adjacency files.
//
// Usage:
//
//	topogen -nodes 128 -seed 1 -format stats
//	topogen -topo torus:8x8 -format stats
//	topogen -topo fattree:4x3 -format svg > fattree.svg
//	topogen -nodes 64 -seed 2 -format dot > net.dot
//	topogen -nodes 32 -seed 3 -format updown
//	topogen -topo hypercube:6 -format adj > cube.adj
//	topogen -topo file:cube.adj -format stats
//
// The adj format is the loader round-trip: every network topogen can build
// it can also dump as an adjacency file and reload with -topo file:<path>.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/topology"
	"repro/internal/updown"
	"repro/internal/viz"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 128, "number of switches for the default lattice (ignored when -topo is set)")
		seed     = flag.Uint64("seed", 1, "generator seed (random families)")
		procs    = flag.Int("procs", 1, "processors per switch (default lattice only; use the /n spec suffix with -topo)")
		topoSpec = flag.String("topo", "", `topology spec: lattice:<n> | gnm:<n>+<m> | mesh:<w>x<h> | torus:<w>x<h> | hypercube:<d> | fattree:<k>x<l> | file:<path>`)
		format   = flag.String("format", "stats", "stats | dot | svg | updown | adj")
		root     = flag.Int("root", -1, "spanning-tree root switch (-1 = min-id strategy)")
	)
	flag.Parse()

	var (
		net *topology.Network
		err error
	)
	if *topoSpec != "" {
		var sp topology.Spec
		if sp, err = topology.ParseSpec(*topoSpec); err == nil {
			net, err = sp.Build(*seed)
		}
	} else {
		cfg := topology.DefaultLattice(*nodes, *seed)
		cfg.ProcsPerSwitch = *procs
		net, err = topology.RandomLattice(cfg)
	}
	if err != nil {
		fail(err)
	}

	switch *format {
	case "stats":
		fmt.Println(topology.ComputeStats(net))
	case "adj":
		fmt.Print(topology.FormatAdjacency(net))
	case "dot":
		fmt.Print(viz.NetworkDOT(net))
	case "svg":
		lab, err := labelingFor(net, *root)
		if err != nil {
			fail(err)
		}
		svg, err := viz.NetworkSVG(net, lab)
		if err != nil {
			fail(err)
		}
		fmt.Print(svg)
	case "updown":
		lab, err := labelingFor(net, *root)
		if err != nil {
			fail(err)
		}
		fmt.Printf("root=%d\n", lab.Root)
		counts := map[updown.Class]int{}
		for _, c := range lab.ClassOf {
			counts[c]++
		}
		fmt.Printf("channels: up=%d down-tree=%d down-cross=%d\n",
			counts[updown.Up], counts[updown.DownTree], counts[updown.DownCross])
		depth := int32(0)
		for _, l := range lab.Level {
			if l > depth {
				depth = l
			}
		}
		fmt.Printf("tree depth=%d\n", depth)
		for sw := 0; sw < net.NumSwitches; sw++ {
			fmt.Printf("switch %d: level=%d parent=%d children=%d\n",
				sw, lab.Level[sw], lab.Parent[sw], len(lab.Children(topology.NodeID(sw))))
		}
	default:
		fail(fmt.Errorf("unknown format %q", *format))
	}
}

func labelingFor(net *topology.Network, root int) (*updown.Labeling, error) {
	if root >= 0 {
		return updown.NewWithRoot(net, topology.NodeID(root))
	}
	return updown.New(net, updown.RootMinID)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
	os.Exit(1)
}
