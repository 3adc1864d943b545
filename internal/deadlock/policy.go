package deadlock

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/updown"
)

// BuildPolicyCDG constructs the *full* continuation relation of a policy
// router: adj[a] lists every channel b such that a worm arriving on a may
// continue on b for some LCA — through a baseline up*/down* candidate or
// through the policy's extras class (the deroute channels of
// PolicyMisroute). For a baseline router it coincides with BuildCDG.
//
// Under an adaptive policy this graph may legitimately contain cycles: two
// worms can each hold a channel the other's extras class covers. Deadlock
// freedom does not rest on this graph — it rests on the engine never
// *waiting* on an extras channel, so the wait-for relation is the escape
// subrelation BuildCDG computes, which VerifyPolicy certifies acyclic
// independently of the adaptive class.
func BuildPolicyCDG(r *core.Router) [][]topology.ChannelID {
	net := r.Net
	lab := r.Lab
	adj := make([][]topology.ChannelID, len(net.Channels))
	for a := range net.Channels {
		ch := &net.Channels[a]
		mid := ch.Dst
		if net.IsProcessor(mid) {
			continue // consumption channels terminate routes
		}
		arrival := core.ArrivalOf(lab.ClassOf[a])
		seen := map[topology.ChannelID]bool{}
		add := func(c topology.ChannelID) {
			if !seen[c] {
				seen[c] = true
				adj[a] = append(adj[a], c)
			}
		}
		for lcaInt := 0; lcaInt < net.NumSwitches; lcaInt++ {
			lca := topology.NodeID(lcaInt)
			if lca == mid {
				continue
			}
			for _, c := range r.CandidateChannels(mid, arrival, lca) {
				add(c)
			}
			for _, c := range r.DerouteChannels(mid, arrival, lca) {
				add(c)
			}
		}
	}
	return adj
}

// VerifyPolicy runs the static deadlock battery for a (possibly adaptive)
// policy router and returns the escape-channel rank certificate: a
// topological order of the escape (baseline-wait) CDG under which every
// wait edge strictly increases — the paper-style total-order witness that
// no blocking cycle can form, valid for any adaptive class layered on top
// because policy channels are only ever taken when instantly free, never
// waited on.
//
// Beyond the escape certificate it checks the per-cell extras invariants
// that make the extras class safe:
//
//   - extras exist only for down-tree arrivals and are all down-cross
//     channels — the unique relaxable clause of the up*/down* rules; in
//     particular no extras channel climbs (phase monotonicity, which keeps
//     even the extras-enlarged relation acyclic and thereby covers
//     Duato-style indirect dependencies);
//   - extras are disjoint from the cell's baseline candidates and never
//     failed channels;
//   - every extras endpoint is viable: it is the LCA or has a non-empty
//     baseline escape row toward it (a derouted worm always has legal
//     channels to fall back on, so a deroute can never strand a header);
//   - every extras hop strictly ascends the labeling's (level, id) order —
//     the lexicographic-descent witness that bounds any worm's path length,
//     so hops under an unbounded budget terminate without a productivity
//     filter (which is provably vacuous at reachable cells; see
//     core.Router.referenceExtras).
func VerifyPolicy(r *core.Router) (map[topology.ChannelID]int, error) {
	lab := r.Lab
	if err := lab.Verify(); err != nil {
		return nil, fmt.Errorf("deadlock: labeling invariant: %w", err)
	}
	escape := BuildCDG(r)
	order, err := ChannelOrder(escape)
	if err != nil {
		return nil, fmt.Errorf("deadlock: escape class: %w", err)
	}
	for a, outs := range escape {
		for _, b := range outs {
			if order[b] <= order[topology.ChannelID(a)] {
				return nil, fmt.Errorf("deadlock: escape rank does not increase on %d -> %d", a, b)
			}
		}
	}
	if r.Policy() == core.PolicyBaseline {
		return order, nil
	}
	net := r.Net
	arrivals := []core.ArrivalClass{core.ArriveInjection, core.ArriveUp, core.ArriveDownCross, core.ArriveDownTree}
	for atInt := 0; atInt < net.NumSwitches; atInt++ {
		at := topology.NodeID(atInt)
		for _, arrival := range arrivals {
			for lcaInt := 0; lcaInt < net.NumSwitches; lcaInt++ {
				lca := topology.NodeID(lcaInt)
				der := r.DerouteChannels(at, arrival, lca)
				if arrival != core.ArriveDownTree {
					if len(der) != 0 {
						return nil, fmt.Errorf("deadlock: (%d,%v,%d): extras offered to a non-down-tree arrival", at, arrival, lca)
					}
					continue
				}
				inBase := map[topology.ChannelID]bool{}
				for _, c := range r.CandidateChannels(at, arrival, lca) {
					inBase[c] = true
				}
				for _, c := range der {
					cell := fmt.Sprintf("(%d,%v,%d)", at, arrival, lca)
					if lab.IsDown(c) {
						return nil, fmt.Errorf("deadlock: %s: deroute channel %d is failed", cell, c)
					}
					if cls := lab.ClassOf[c]; cls != updown.DownCross {
						return nil, fmt.Errorf("deadlock: %s: %v deroute channel %d (extras must be down-cross)", cell, cls, c)
					}
					if inBase[c] {
						return nil, fmt.Errorf("deadlock: %s: deroute channel %d already baseline-legal", cell, c)
					}
					end := net.Chan(c).Dst
					if la, le := lab.Level[at], lab.Level[end]; la > le || (la == le && at >= end) {
						return nil, fmt.Errorf("deadlock: %s: extras hop %d does not ascend the (level, id) order (%d,%d) -> (%d,%d)",
							cell, c, la, at, le, end)
					}
					if !lab.IsExtendedAncestor(end, lca) {
						return nil, fmt.Errorf("deadlock: %s: deroute channel %d cannot complete the descent from %d", cell, c, end)
					}
					if end != lca && len(r.CandidateChannels(end, core.ArriveDownCross, lca)) == 0 {
						return nil, fmt.Errorf("deadlock: %s: deroute channel %d strands the worm at %d", cell, c, end)
					}
				}
			}
		}
	}
	return order, nil
}
