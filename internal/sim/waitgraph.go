package sim

import (
	"maps"
	"slices"
)

// WaitEdges builds the worm-level wait-for graph at the current instant:
// there is an edge W -> W' when some head segment of worm W is waiting for
// an output channel that is reserved by worm W' or queued behind a request
// of W' in that channel's OCRQ. A cycle in this graph is a deadlock; SPAM's
// Theorem 1 says it can never appear, and the watchdog verifies that claim
// on every stalled interval.
func (s *Simulator) WaitEdges() map[int64][]int64 {
	edges := map[int64][]int64{}
	addEdge := func(from, to int64) {
		if from == to {
			return
		}
		for _, e := range edges[from] {
			if e == to {
				return
			}
		}
		edges[from] = append(edges[from], to)
	}
	for c := range s.chans {
		cs := &s.chans[c]
		for i, seg := range cs.ocrq {
			if cs.reserved != nil {
				addEdge(seg.worm.ID, cs.reserved.worm.ID)
			}
			for j := 0; j < i; j++ {
				addEdge(seg.worm.ID, cs.ocrq[j].worm.ID)
			}
		}
	}
	return edges
}

// WaitCycle returns one cycle of worm IDs in the wait-for graph, in wait-for
// order (each worm waits for the next, the last for the first), or nil if
// the graph is acyclic. The answer is a function of the graph alone: the
// search starts from worms in ascending ID, and the cycle is rotated to
// begin at its smallest worm ID, so reruns report the same cycle.
func (s *Simulator) WaitCycle() []int64 {
	edges := s.WaitEdges()
	roots := slices.Sorted(maps.Keys(edges))
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int64]int{}
	parent := map[int64]int64{}
	var cycle []int64

	var dfs func(u int64) bool
	dfs = func(u int64) bool {
		color[u] = gray
		for _, v := range edges[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a cycle v -> ... -> u -> v.
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				cycle = append(cycle, v)
				slices.Reverse(cycle)
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, u := range roots {
		if color[u] == white && dfs(u) {
			low := slices.Index(cycle, slices.Min(cycle))
			return slices.Concat(cycle[low:], cycle[:low])
		}
	}
	return nil
}
