package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is a simple undirected graph over vertices [0, N).
type Graph struct {
	n   int
	adj [][]int32
	m   int // edge count
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v}. It returns an error for
// out-of-range endpoints, self-loops or duplicate edges.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
	return nil
}

// MustAddEdge is AddEdge that panics on error; for tests and literals.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	// Scan the smaller adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if int(w) == b {
			return true
		}
	}
	return false
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Edges returns all edges as (u, v) pairs with u < v, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, w := range g.adj[u] {
			if int(w) > u {
				out = append(out, [2]int{u, int(w)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// BFSResult carries the outcome of a breadth-first search.
type BFSResult struct {
	Root   int
	Dist   []int32 // hop distance from Root; -1 if unreachable
	Parent []int32 // BFS-tree parent; -1 for root and unreachable vertices
	Order  []int32 // visit order (root first)
}

// BFS runs a breadth-first search from root. Neighbor exploration is in
// ascending vertex order so that BFS trees are deterministic.
func (g *Graph) BFS(root int) *BFSResult {
	if root < 0 || root >= g.n {
		panic(fmt.Sprintf("graph: BFS root %d out of range", root))
	}
	res := &BFSResult{
		Root:   root,
		Dist:   make([]int32, g.n),
		Parent: make([]int32, g.n),
	}
	for i := range res.Dist {
		res.Dist[i] = -1
		res.Parent[i] = -1
	}
	res.Dist[root] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(root))
	res.Order = append(res.Order, int32(root))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbrs := append([]int32(nil), g.adj[u]...)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		for _, v := range nbrs {
			if res.Dist[v] == -1 {
				res.Dist[v] = res.Dist[u] + 1
				res.Parent[v] = u
				queue = append(queue, v)
				res.Order = append(res.Order, v)
			}
		}
	}
	return res
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.BFS(0).Order) == g.n
}

// eccentricity returns the eccentricity of u (max distance to any vertex)
// over caller-owned BFS buffers of length n, so the all-vertex scans of
// Center and Diameter allocate them once. It panics if the graph is
// disconnected.
func (g *Graph) eccentricity(u int, dist, queue []int32) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	queue[0] = int32(u)
	tail := 1
	for head := 0; head < tail; head++ {
		x := queue[head]
		for _, v := range g.adj[x] {
			if dist[v] == -1 {
				dist[v] = dist[x] + 1
				queue[tail] = v
				tail++
			}
		}
	}
	if tail < g.n {
		panic("graph: eccentricity of disconnected graph")
	}
	// BFS dequeues in nondecreasing distance: the last vertex is farthest.
	return int(dist[queue[tail-1]])
}

// Center returns the vertex with minimum eccentricity (smallest ID among
// ties). It panics on empty or disconnected graphs.
func (g *Graph) Center() int {
	if g.n == 0 {
		panic("graph: center of empty graph")
	}
	dist, queue := make([]int32, g.n), make([]int32, g.n)
	best, bestEcc := 0, g.eccentricity(0, dist, queue)
	for u := 1; u < g.n; u++ {
		if e := g.eccentricity(u, dist, queue); e < bestEcc {
			best, bestEcc = u, e
		}
	}
	return best
}

// Diameter returns the maximum eccentricity. Panics if disconnected.
func (g *Graph) Diameter() int {
	dist, queue := make([]int32, g.n), make([]int32, g.n)
	d := 0
	for u := 0; u < g.n; u++ {
		if e := g.eccentricity(u, dist, queue); e > d {
			d = e
		}
	}
	return d
}

// DOT renders the graph in Graphviz DOT format with optional per-vertex
// labels (nil for plain IDs).
func (g *Graph) DOT(name string, label func(v int) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s {\n", name)
	for v := 0; v < g.n; v++ {
		if label != nil {
			fmt.Fprintf(&sb, "  %d [label=%q];\n", v, label(v))
		} else {
			fmt.Fprintf(&sb, "  %d;\n", v)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %d -- %d;\n", e[0], e[1])
	}
	sb.WriteString("}\n")
	return sb.String()
}
