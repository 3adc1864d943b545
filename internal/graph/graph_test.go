package graph

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// path builds a path graph 0-1-2-...-n-1.
func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Fatal("reversed duplicate edge accepted")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if g.M() != 1 {
		t.Fatalf("M=%d want 1", g.M())
	}
}

func TestHasEdgeAndDegree(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge symmetric lookup failed")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.HasEdge(-1, 5) {
		t.Fatal("out-of-range HasEdge returned true")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(3))
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(0, 1)
	want := [][2]int{{0, 1}, {0, 3}, {2, 3}}
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("edges %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges %v want %v", got, want)
		}
	}
}

func TestBFSPath(t *testing.T) {
	g := path(5)
	res := g.BFS(0)
	for v := 0; v < 5; v++ {
		if int(res.Dist[v]) != v {
			t.Fatalf("dist[%d]=%d", v, res.Dist[v])
		}
	}
	if res.Parent[0] != -1 || res.Parent[3] != 2 {
		t.Fatalf("parents wrong: %v", res.Parent)
	}
	if len(res.Order) != 5 || res.Order[0] != 0 {
		t.Fatalf("order %v", res.Order)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	res := g.BFS(0)
	if res.Dist[2] != -1 || res.Parent[2] != -1 {
		t.Fatal("unreachable vertex not marked -1")
	}
}

func TestBFSDeterministicTree(t *testing.T) {
	// Diamond: 0-1, 0-2, 1-3, 2-3. BFS from 0 must pick parent(3)=1
	// (ascending neighbor order).
	g := New(4)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(1, 3)
	res := g.BFS(0)
	if res.Parent[3] != 1 {
		t.Fatalf("parent[3]=%d want 1 (deterministic order)", res.Parent[3])
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(3, 4)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	// Each component is what a BFS from one of its vertices reaches.
	for root, want := range map[int][]int32{0: {0, 1}, 2: {2}, 4: {4, 3}} {
		if got := g.BFS(root).Order; !slices.Equal(got, want) {
			t.Fatalf("BFS(%d) reaches %v, want %v", root, got, want)
		}
	}
	if !path(6).Connected() {
		t.Fatal("path reported disconnected")
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs must be connected")
	}
}

func TestEccentricityCenterDiameter(t *testing.T) {
	g := path(5) // center is 2, diameter 4
	if c := g.Center(); c != 2 {
		t.Fatalf("center=%d", c)
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("diameter=%d", d)
	}
}

func TestCenterTieBreaksToSmallestID(t *testing.T) {
	g := path(4) // vertices 1 and 2 both have ecc 2
	if c := g.Center(); c != 1 {
		t.Fatalf("center=%d want 1", c)
	}
}

func TestDOT(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1)
	dot := g.DOT("g", func(v int) string { return "sw" })
	for _, want := range []string{"graph g {", "0 -- 1;", `label="sw"`} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// Property: on random connected graphs, BFS distance satisfies the triangle
// inequality along edges: |d(u) - d(v)| <= 1 for every edge {u,v}.
func TestBFSDistanceLipschitzProperty(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(40)
		g := randomConnected(r, n)
		res := g.BFS(r.Intn(n))
		for _, e := range g.Edges() {
			du, dv := res.Dist[e[0]], res.Dist[e[1]]
			diff := du - dv
			if diff < -1 || diff > 1 {
				t.Fatalf("edge %v has dist gap %d", e, diff)
			}
		}
	}
}

// randomConnected builds a random connected graph: a random tree plus extras.
func randomConnected(r *rng.Source, n int) *Graph {
	g := New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(perm[i], perm[r.Intn(i)])
	}
	extra := r.Intn(n)
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}
