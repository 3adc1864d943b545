package core

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/topology"
	"repro/internal/updown"
)

// zooSpecs spans every topology-zoo family the spec grammar knows, at sizes
// small enough for exhaustive cell-by-cell sweeps.
var zooSpecs = []string{
	"lattice:32",
	"gnm:24+12",
	"mesh:5x4",
	"torus:5x5",
	"hypercube:4",
	"fattree:2x3",
}

// denseTables is the uncompressed middle term of the three-way equivalence:
// every (class, at, lca) row materialized separately from the reference
// routing function, with no arena, page, or column sharing — the structure
// the compressed index must reproduce cell by cell.
type denseTables struct {
	s    int
	rows [][]topology.ChannelID // [cls*s*s + at*s + lca]
}

func denseFromReference(ref *Router) *denseTables {
	s := ref.Net.NumSwitches
	classes := []ArrivalClass{ArriveUp, ArriveDownCross, ArriveDownTree}
	d := &denseTables{s: s, rows: make([][]topology.ChannelID, len(classes)*s*s)}
	for cls, arrival := range classes {
		for at := 0; at < s; at++ {
			for lca := 0; lca < s; lca++ {
				cands := ref.ReferenceCandidateOutputs(topology.NodeID(at), arrival, topology.NodeID(lca))
				row := make([]topology.ChannelID, len(cands))
				for i, c := range cands {
					row[i] = c.Channel
				}
				d.rows[(cls*s+at)*s+lca] = row
			}
		}
	}
	return d
}

func (d *denseTables) row(cls, at, lca int) []topology.ChannelID {
	return d.rows[(cls*d.s+at)*d.s+lca]
}

// checkThreeWay asserts compressed ≡ dense ≡ reference on every cell of
// every arrival class (injection shares the up rows, so it is checked
// against the class-0 dense rows).
func checkThreeWay(t *testing.T, label string, table, ref *Router, dense *denseTables) {
	t.Helper()
	s := ref.Net.NumSwitches
	arrivals := []struct {
		a   ArrivalClass
		cls int
	}{
		{ArriveInjection, 0}, {ArriveUp, 0}, {ArriveDownCross, 1}, {ArriveDownTree, 2},
	}
	for at := 0; at < s; at++ {
		for _, ac := range arrivals {
			for lca := 0; lca < s; lca++ {
				atN, lcaN := topology.NodeID(at), topology.NodeID(lca)
				got := table.CandidateChannels(atN, ac.a, lcaN)
				mid := dense.row(ac.cls, at, lca)
				want := ref.ReferenceCandidateOutputs(atN, ac.a, lcaN)
				if len(got) != len(mid) || len(got) != len(want) {
					t.Fatalf("%s (%d,%v,%d): compressed %d / dense %d / reference %d candidates",
						label, at, ac.a, lca, len(got), len(mid), len(want))
				}
				for i := range want {
					if got[i] != mid[i] || got[i] != want[i].Channel {
						t.Fatalf("%s (%d,%v,%d)[%d]: compressed %d, dense %d, reference %d",
							label, at, ac.a, lca, i, got[i], mid[i], want[i].Channel)
					}
				}
			}
		}
	}
}

// maskableLink finds a switch-switch channel pair whose failure keeps the
// switch graph connected under the labeling's root, by trial relabel on a
// scratch labeling.
func maskableLink(lab *updown.Labeling) (*bitset.Set, bool) {
	net := lab.Net
	probe, err := updown.NewWithRoot(net, lab.Root)
	if err != nil {
		return nil, false
	}
	mask := bitset.New(len(net.Channels))
	for ci, ch := range net.Channels {
		if topology.ChannelID(ci) > topology.ChannelID(ci).Reverse() || net.IsProcessor(ch.Src) || net.IsProcessor(ch.Dst) {
			continue
		}
		mask.Reset()
		mask.Set(ci)
		mask.Set(int(topology.ChannelID(ci).Reverse()))
		if probe.Relabel(mask) == nil {
			return mask, true
		}
	}
	return nil, false
}

// TestZooThreeWayTableEquivalence is the satellite property pin for the
// compressed index: on every zoo family × every root strategy, the
// compressed tables, an uncompressed dense materialization, and the
// reference routing function agree on every (switch, arrival class, LCA)
// cell — and they stay in agreement after a fault-masked Relabel+Recompile
// and after the swap back to the unmasked labeling (the live-reconfiguration
// round trip).
func TestZooThreeWayTableEquivalence(t *testing.T) {
	strategies := []updown.RootStrategy{updown.RootMinID, updown.RootMaxDegree, updown.RootCenter}
	for _, spec := range zooSpecs {
		sp, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(1998)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, strat := range strategies {
			label := fmt.Sprintf("%s/%v", spec, strat)
			t.Run(label, func(t *testing.T) {
				lab, err := updown.New(net, strat)
				if err != nil {
					t.Fatal(err)
				}
				table := NewRouter(lab)
				ref := NewReferenceRouter(lab)
				checkThreeWay(t, label, table, ref, denseFromReference(ref))

				mask, ok := maskableLink(lab)
				if !ok {
					t.Skipf("%s: no maskable link (tree network)", label)
				}
				if err := lab.Relabel(mask); err != nil {
					t.Fatal(err)
				}
				table.Recompile(lab)
				checkThreeWay(t, label+"/masked", table, ref, denseFromReference(ref))

				if err := lab.Relabel(nil); err != nil {
					t.Fatal(err)
				}
				table.Recompile(lab)
				checkThreeWay(t, label+"/restored", table, ref, denseFromReference(ref))
			})
		}
	}
}
