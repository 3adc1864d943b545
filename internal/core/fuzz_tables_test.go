package core

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/updown"
)

// FuzzRouteTableVsReference fuzzes the compiled routing tables against the
// reference implementation: on arbitrary random topologies (lattice or
// unconstrained G(n,m), 2–25 switches) and on two-level fat-trees of k = 2
// to 40 (2k switches of degree k: past k = 32 the distance BFS runs a second
// 64-source batch and a switch's LCA code vector spans two words), the
// precompiled candidate rows must match
// ReferenceCandidateOutputs cell by cell — same channels, same selection
// order — and the bitset-driven distribution fast path must replay the
// reference ancestor walk for the fuzzed destination set. Run with
// `go test -fuzz=FuzzRouteTableVsReference ./internal/core` to explore; the
// seed corpus runs as part of `go test`.
func FuzzRouteTableVsReference(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(0), uint8(0), uint16(0), uint64(0b1011))
	f.Add(uint64(42), uint8(30), uint8(1), uint8(1), uint16(7), uint64(0xffff))
	f.Add(uint64(7), uint8(3), uint8(2), uint8(0), uint16(999), uint64(1))
	f.Add(uint64(0), uint8(0), uint8(255), uint8(1), uint16(65535), uint64(^uint64(0)))
	f.Add(uint64(3), uint8(31), uint8(0), uint8(2), uint16(5), uint64(0xf0f0))  // fattree:33x2
	f.Add(uint64(5), uint8(38), uint8(1), uint8(2), uint16(77), uint64(0x8421)) // fattree:40x2

	f.Fuzz(func(t *testing.T, seed uint64, sizeSel, rootSel, family uint8, srcSel uint16, destBits uint64) {
		n := 2 + int(sizeSel%24)
		var net *topology.Network
		var err error
		switch family % 3 {
		case 0:
			net, err = topology.RandomLattice(topology.DefaultLattice(n, seed))
		case 1:
			net, err = topology.RandomIrregular(topology.GNMConfig{
				Switches:   n,
				ExtraLinks: n / 2,
				Seed:       seed,
			})
		default:
			net, err = topology.FatTree(2+int(sizeSel%39), 2, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		lab, err := updown.New(net, updown.RootStrategy(rootSel%3))
		if err != nil {
			t.Fatal(err)
		}
		table := NewRouter(lab)
		ref := NewReferenceRouter(lab)

		// Every (switch, arrival class, LCA) cell of the compiled tables
		// must reproduce the reference routing function.
		arrivals := []ArrivalClass{ArriveInjection, ArriveUp, ArriveDownCross, ArriveDownTree}
		for at := 0; at < net.NumSwitches; at++ {
			for _, arrival := range arrivals {
				for lca := 0; lca < net.NumSwitches; lca++ {
					atN, lcaN := topology.NodeID(at), topology.NodeID(lca)
					want := ref.ReferenceCandidateOutputs(atN, arrival, lcaN)
					got := table.CandidateOutputs(atN, arrival, lcaN)
					if len(got) != len(want) {
						t.Fatalf("(%d,%v,%d): %d candidates, want %d", at, arrival, lca, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("(%d,%v,%d)[%d]: table %+v, reference %+v", at, arrival, lca, i, got[i], want[i])
						}
					}
				}
			}
		}

		// Distribution fast path on the fuzzed (src, dests) pair.
		src := topology.NodeID(net.NumSwitches + int(srcSel)%net.NumProcs)
		var dests []topology.NodeID
		for i := 0; i < net.NumProcs && i < 64; i++ {
			if destBits&(1<<uint(i)) != 0 {
				if d := topology.NodeID(net.NumSwitches + i); d != src {
					dests = append(dests, d)
				}
			}
		}
		if len(dests) == 0 {
			return
		}
		if tl, rl := table.LCASwitch(dests), ref.LCASwitch(dests); tl != rl {
			t.Fatalf("LCA: table %d, reference %d", tl, rl)
		}
		ds, err := table.DestSet(dests)
		if err != nil {
			t.Fatal(err)
		}
		for at := 0; at < net.NumSwitches; at++ {
			atN := topology.NodeID(at)
			want := ref.ReferenceDistributionOutputs(atN, ds)
			got := table.DistributionOutputs(atN, ds)
			if len(got) != len(want) {
				t.Fatalf("distribution at %d: %v, want %v", at, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("distribution at %d: %v, want %v", at, got, want)
				}
			}
		}
	})
}
