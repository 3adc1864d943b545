package deadlock

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/updown"
)

// BuildCDG constructs the channel dependency graph of the SPAM unicast
// routing relation: adj[a] lists every channel b such that a worm can
// arrive on a and legally continue on b (for at least one destination).
func BuildCDG(r *core.Router) [][]topology.ChannelID {
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
		// A continuation is legal if it is offered for some destination
		// switch: union the candidate channels over all destinations.
		for lcaInt := 0; lcaInt < net.NumSwitches; lcaInt++ {
			lca := topology.NodeID(lcaInt)
			if lca == mid {
				// Route ends here for this LCA; continuation is a
				// consumption channel, which never cycles.
				continue
			}
			for _, c := range r.CandidateChannels(mid, arrival, lca) {
				if !seen[c] {
					seen[c] = true
					adj[a] = append(adj[a], c)
				}
			}
		}
	}
	return adj
}

// FindCycle returns a cycle in the dependency graph, or nil if acyclic.
func FindCycle(adj [][]topology.ChannelID) []topology.ChannelID {
	const (
		white = iota
		gray
		black
	)
	color := make([]uint8, len(adj))
	parent := make([]topology.ChannelID, len(adj))
	for i := range parent {
		parent[i] = topology.None
	}
	var cycle []topology.ChannelID
	// Iterative DFS with an explicit stack (networks can be large).
	type frame struct {
		node topology.ChannelID
		next int
	}
	for start := range adj {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: topology.ChannelID(start)}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				v := adj[f.node][f.next]
				f.next++
				switch color[v] {
				case white:
					color[v] = gray
					parent[v] = f.node
					stack = append(stack, frame{node: v})
				case gray:
					// Cycle v -> ... -> f.node -> v.
					cycle = append(cycle, v)
					for x := f.node; x != v; x = parent[x] {
						cycle = append(cycle, x)
					}
					return cycle
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// VerifyStatic runs the full static battery over a labeled network:
// labeling invariants plus CDG acyclicity. It returns a descriptive error
// on the first violation.
func VerifyStatic(lab *updown.Labeling) error {
	if err := lab.Verify(); err != nil {
		return fmt.Errorf("deadlock: labeling invariant: %w", err)
	}
	r := core.NewRouter(lab)
	adj := BuildCDG(r)
	if cyc := FindCycle(adj); cyc != nil {
		return fmt.Errorf("deadlock: channel dependency cycle of length %d: %v", len(cyc), cyc)
	}
	return nil
}

// ChannelOrder computes the paper-style total order witness for acyclicity:
// a topological order of the CDG (channel -> rank). It errors if the graph
// has a cycle. Tests use it as an independent certificate: every dependency
// must strictly increase in rank.
func ChannelOrder(adj [][]topology.ChannelID) (map[topology.ChannelID]int, error) {
	n := len(adj)
	indeg := make([]int, n)
	for _, outs := range adj {
		for _, v := range outs {
			indeg[v]++
		}
	}
	queue := make([]topology.ChannelID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, topology.ChannelID(i))
		}
	}
	order := make(map[topology.ChannelID]int, n)
	rank := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order[u] = rank
		rank++
		for _, v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if rank != n {
		return nil, fmt.Errorf("deadlock: %d channels unsortable (cycle)", n-rank)
	}
	return order, nil
}
