package partition

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

// Strategy selects how destinations are grouped.
type Strategy uint8

const (
	// None sends a single worm to all destinations (plain SPAM).
	None Strategy = iota
	// BySubtree groups destinations by the root child whose subtree
	// contains them: every group's LCA then sits strictly below the root
	// (except for the group of destinations directly under the root).
	BySubtree
	// KWayDFS orders destinations by their spanning-tree DFS (preorder)
	// position — "contiguous nodes" in the tree sense — and cuts the
	// order into K equal chunks.
	KWayDFS
)

func (s Strategy) String() string {
	switch s {
	case None:
		return "none"
	case BySubtree:
		return "by-subtree"
	case KWayDFS:
		return "k-way-dfs"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// Partition splits dests into groups per the strategy. K is used only by
// KWayDFS (and must be >= 1). Groups are never empty.
func Partition(lab *updown.Labeling, strategy Strategy, dests []topology.NodeID, k int) ([][]topology.NodeID, error) {
	if len(dests) == 0 {
		return nil, fmt.Errorf("partition: empty destination set")
	}
	switch strategy {
	case None:
		return [][]topology.NodeID{append([]topology.NodeID(nil), dests...)}, nil
	case BySubtree:
		groups := map[topology.NodeID][]topology.NodeID{}
		var order []topology.NodeID
		for _, d := range dests {
			anchor := anchorUnderRoot(lab, d)
			if _, seen := groups[anchor]; !seen {
				order = append(order, anchor)
			}
			groups[anchor] = append(groups[anchor], d)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		out := make([][]topology.NodeID, 0, len(order))
		for _, a := range order {
			out = append(out, groups[a])
		}
		return out, nil
	case KWayDFS:
		if k < 1 {
			return nil, fmt.Errorf("partition: k=%d must be >= 1", k)
		}
		ordered := append([]topology.NodeID(nil), dests...)
		pos := dfsOrder(lab)
		sort.Slice(ordered, func(i, j int) bool { return pos[ordered[i]] < pos[ordered[j]] })
		if k > len(ordered) {
			k = len(ordered)
		}
		out := make([][]topology.NodeID, 0, k)
		for g := 0; g < k; g++ {
			lo := g * len(ordered) / k
			hi := (g + 1) * len(ordered) / k
			if hi > lo {
				out = append(out, ordered[lo:hi:hi])
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("partition: unknown strategy %v", strategy)
}

// anchorUnderRoot returns the child of the root whose subtree contains d
// (or the root itself when d hangs directly under it).
func anchorUnderRoot(lab *updown.Labeling, d topology.NodeID) topology.NodeID {
	x := d
	for lab.Parent[x] >= 0 && lab.Parent[x] != lab.Root {
		x = lab.Parent[x]
	}
	if lab.Parent[x] == lab.Root {
		return x
	}
	return lab.Root
}

// dfsOrder computes spanning-tree preorder positions for every node.
func dfsOrder(lab *updown.Labeling) map[topology.NodeID]int {
	pos := make(map[topology.NodeID]int, lab.Net.N())
	n := 0
	var walk func(v topology.NodeID)
	walk = func(v topology.NodeID) {
		pos[v] = n
		n++
		for _, c := range lab.Children(v) {
			walk(lab.Net.Chan(c).Dst)
		}
	}
	walk(lab.Root)
	return pos
}

// Run is a partitioned multicast in flight: one SPAM worm per group, all
// submitted at the same instant (the source processor serializes their
// startups).
type Run struct {
	Groups   [][]topology.NodeID
	SubmitNs int64
	DoneNs   int64
	Worms    []*sim.Worm

	remaining int
	completed bool
}

// Completed reports whether every group's worm has delivered everywhere.
func (r *Run) Completed() bool { return r.completed }

// Latency returns the end-to-end latency once completed.
func (r *Run) Latency() int64 { return r.DoneNs - r.SubmitNs }

// Send submits one SPAM multicast per destination group.
func Send(s *sim.Simulator, lab *updown.Labeling, strategy Strategy, k int, at int64, src topology.NodeID, dests []topology.NodeID) (*Run, error) {
	groups, err := Partition(lab, strategy, dests, k)
	if err != nil {
		return nil, err
	}
	run := &Run{Groups: groups, SubmitNs: at, remaining: len(groups)}
	for _, g := range groups {
		w, err := s.Submit(at, src, g)
		if err != nil {
			return nil, err
		}
		w.OnComplete = func(_ *sim.Worm, doneAt int64) {
			run.remaining--
			if doneAt > run.DoneNs {
				run.DoneNs = doneAt
			}
			if run.remaining == 0 {
				run.completed = true
			}
		}
		run.Worms = append(run.Worms, w)
	}
	return run, nil
}
