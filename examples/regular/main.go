// Regular topologies — the paper's future-work Section 5 notes that the
// deadlock-freedom technique applies to regular networks too, where
// "judicious selection of spanning trees … may have significant effects on
// performance". This example runs the same broadcast workload over an
// irregular lattice, a 2-D mesh and a hypercube of comparable size, with
// both an arbitrary (min-ID, i.e. corner) root and a graph-center root, and
// reports how topology and root choice move latency.
package main

import (
	"fmt"
	"log"

	spamnet "repro"
	"repro/internal/rng"
	"repro/internal/stats"
)

const trials = 15

func main() {
	fmt.Println("SPAM broadcast on regular vs irregular topologies (64 switches, 1 proc each)")
	fmt.Printf("%-22s %-12s %10s %14s %10s\n", "topology", "root", "depth", "broadcast(us)", "ci95(us)")

	builds := []struct{ name, spec string }{
		{"irregular lattice", "lattice:64"},
		{"8x8 mesh", "mesh:8x8"},
		{"hypercube dim 6", "hypercube:6"},
	}
	for _, b := range builds {
		for _, strat := range []spamnet.RootStrategy{spamnet.RootMinID, spamnet.RootCenter} {
			sys, err := spamnet.NewFromSpec(b.spec, spamnet.WithSeed(9), spamnet.WithRootStrategy(strat))
			if err != nil {
				log.Fatal(err)
			}
			depth := int32(0)
			for _, l := range sys.Labeling().Level {
				if l > depth {
					depth = l
				}
			}
			st := measure(sys)
			fmt.Printf("%-22s %-12s %10d %14.2f %10.2f\n",
				b.name, strat, depth, st.Mean(), st.CI95())
		}
	}
	fmt.Println("\nmeshes and hypercubes have no cross channels, so every SPAM route is a")
	fmt.Println("pure tree route; a center root halves the tree depth of a corner root.")
}

func measure(sys *spamnet.System) *stats.Stream {
	r := rng.New(5)
	st := &stats.Stream{}
	procs := sys.Processors()
	for trial := 0; trial < trials; trial++ {
		sess, err := sys.NewSession()
		if err != nil {
			log.Fatal(err)
		}
		src := procs[r.Intn(len(procs))]
		var dests []spamnet.NodeID
		for _, d := range procs {
			if d != src {
				dests = append(dests, d)
			}
		}
		w, err := sess.Multicast(0, src, dests)
		if err != nil {
			log.Fatal(err)
		}
		if err := sess.Run(); err != nil {
			log.Fatal(err)
		}
		st.Add(float64(w.Latency()) / 1000)
	}
	return st
}
