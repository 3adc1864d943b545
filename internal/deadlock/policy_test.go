package deadlock

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/updown"
	"repro/internal/workload"
)

// policyZooSpecs spans every topology-zoo family at certificate-sweep sizes
// (the same families the core table-equivalence battery uses).
var policyZooSpecs = []string{
	"lattice:32",
	"gnm:24+12",
	"mesh:5x4",
	"torus:5x5",
	"hypercube:4",
	"fattree:2x3",
}

// policyMaskableLink finds a switch-switch channel pair whose failure keeps
// the switch graph connected under the labeling's root, by trial relabel on
// a scratch labeling.
func policyMaskableLink(lab *updown.Labeling) (*bitset.Set, bool) {
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

// certifyPolicy runs VerifyPolicy and sanity-checks the returned escape
// certificate: total over all channels, every escape dependency strictly
// rank-increasing (re-derived here from a fresh BuildCDG, independent of the
// order VerifyPolicy used internally).
func certifyPolicy(t *testing.T, label string, r *core.Router) map[topology.ChannelID]int {
	t.Helper()
	order, err := VerifyPolicy(r)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(order) != len(r.Net.Channels) {
		t.Fatalf("%s: certificate covers %d of %d channels", label, len(order), len(r.Net.Channels))
	}
	for a, outs := range BuildCDG(r) {
		for _, b := range outs {
			if order[b] <= order[topology.ChannelID(a)] {
				t.Fatalf("%s: escape rank not increasing on %d -> %d", label, a, b)
			}
		}
	}
	return order
}

// TestZooPolicyCertificates is the satellite property battery: the router
// each wire name of the misroute family builds ("misroute", and "duato",
// misroute with an unbounded budget) emits a CDG topological-order
// certificate on all zoo families × 3 root strategies, and keeps doing so
// through a fault-masked Relabel/Recompile round trip. The misroute budget
// is per-worm engine state: NewRouterPolicy takes none, so the static
// relation cannot depend on it.
//
// The escape subgraph is certified independently of the adaptive class in
// the strongest sense: the escape CDG of a policy router is channel-for-
// channel identical to the baseline router's CDG (the extras planes add
// nothing to the wait relation). And because extras never climb — phase
// monotonicity — even the *full* policy CDG (baseline ∪ extras) stays a
// DAG: down channels strictly ascend the labeling's (level, id) order, so
// a policy walk cannot return to any channel class it left. The battery
// certifies both graphs with independent Kahn orders.
func TestZooPolicyCertificates(t *testing.T) {
	strategies := []updown.RootStrategy{updown.RootMinID, updown.RootMaxDegree, updown.RootCenter}
	extrasEdges := 0
	for _, spec := range policyZooSpecs {
		sp, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(1998)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, strat := range strategies {
			for _, routing := range []string{"misroute", "duato"} {
				label := fmt.Sprintf("%s/%v/%s", spec, strat, routing)
				t.Run(label, func(t *testing.T) {
					pol, budget, err := workload.RoutingPolicy(workload.Params{Routing: routing})
					if err != nil {
						t.Fatal(err)
					}
					if pol != core.PolicyMisroute || (routing == "duato") != (budget == math.MaxInt32) {
						t.Fatalf("%s resolves to (%v, %d)", routing, pol, budget)
					}
					lab, err := updown.New(net, strat)
					if err != nil {
						t.Fatal(err)
					}
					r := core.NewRouterPolicy(lab, pol)
					order := certifyPolicy(t, label, r)
					// Escape-class independence: the policy router's wait
					// relation is exactly the baseline router's CDG.
					escape := BuildCDG(r)
					baseCDG := BuildCDG(core.NewRouter(lab))
					for a := range escape {
						if len(escape[a]) != len(baseCDG[a]) {
							t.Fatalf("%s: escape CDG differs from baseline at channel %d", label, a)
						}
						for i, b := range escape[a] {
							if baseCDG[a][i] != b {
								t.Fatalf("%s: escape CDG differs from baseline at channel %d", label, a)
							}
						}
					}
					// Full-relation certificate: phase monotonicity keeps
					// even the extras-enlarged relation sortable. (As a
					// channel-to-channel union it in fact coincides with
					// the escape CDG — an extras channel is baseline-legal
					// toward its own endpoint — which is exactly why the
					// adaptive class cannot manufacture new wait cycles;
					// the per-cell extras are counted below instead.)
					full := BuildPolicyCDG(r)
					if _, err := ChannelOrder(full); err != nil {
						t.Fatalf("%s: full policy CDG: %v", label, err)
					}
					for at := 0; at < net.NumSwitches; at++ {
						for lca := 0; lca < net.NumSwitches; lca++ {
							extrasEdges += len(r.DerouteChannels(topology.NodeID(at), core.ArriveDownTree, topology.NodeID(lca)))
						}
					}

					mask, ok := policyMaskableLink(lab)
					if !ok {
						t.Skipf("%s: no maskable link (tree network)", label)
					}
					if err := lab.Relabel(mask); err != nil {
						t.Fatal(err)
					}
					r.Recompile(lab)
					certifyPolicy(t, label+"/masked", r)

					if err := lab.Relabel(nil); err != nil {
						t.Fatal(err)
					}
					r.Recompile(lab)
					restored := certifyPolicy(t, label+"/restored", r)
					for c, rk := range order {
						if restored[c] != rk {
							t.Fatalf("%s: certificate not restored after round trip (channel %d: %d vs %d)", label, c, rk, restored[c])
						}
					}
				})
			}
		}
	}
	// The adaptive class must genuinely enlarge the relation somewhere, or
	// the escape-vs-full split this battery certifies would be vacuous.
	if extrasEdges == 0 {
		t.Errorf("no zoo family produced any extras edge — policy CDG battery is vacuous")
	}
}
