package topology

import (
	"slices"
	"testing"

	"repro/internal/bitset"
)

// reachesAll reports whether one search from switch 0 reaches every switch.
func reachesAll(n *Network) bool {
	dist, queue := make([]int32, n.NumSwitches), make([]int32, n.NumSwitches)
	return n.SwitchDistances(0, nil, dist, queue) == n.NumSwitches
}

// pathNet builds the path 0-1-…-(s−1), links added from the far end so the
// builder has to sort them.
func pathNet(t *testing.T, s int) *Network {
	t.Helper()
	b := NewBuilder(s, 0)
	for u := s - 2; u >= 0; u-- {
		b.Link(u+1, u)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// cycleNet builds the cycle 0-1-…-(s−1)-0.
func cycleNet(t *testing.T, s int) *Network {
	t.Helper()
	b := NewBuilder(s, 0)
	for u := 0; u < s; u++ {
		b.Link(u, (u+1)%s)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func distances(n *Network, src NodeID, down *bitset.Set) ([]int32, int) {
	dist, queue := make([]int32, n.NumSwitches), make([]int32, n.NumSwitches)
	reached := n.SwitchDistances(src, down, dist, queue)
	return dist, reached
}

// TestBuilderRejectsBadLinks: every malformed link is an error naming it,
// never a panic, whatever its position among valid links.
func TestBuilderRejectsBadLinks(t *testing.T) {
	for name, links := range map[string][][2]int{
		"self-loop":          {{0, 1}, {2, 2}, {1, 2}},
		"negative endpoint":  {{0, 1}, {-1, 2}, {1, 2}},
		"endpoint past S":    {{0, 1}, {1, 3}, {1, 2}},
		"both past S":        {{0, 1}, {1, 2}, {7, 9}},
		"pair twice":         {{0, 1}, {1, 2}, {0, 1}},
		"pair twice swapped": {{0, 1}, {1, 2}, {2, 1}},
		"repeat in a bucket": {{0, 2}, {0, 1}, {1, 2}, {0, 2}},
	} {
		t.Run(name, func(t *testing.T) {
			b := NewBuilder(3, 0)
			for _, l := range links {
				b.Link(l[0], l[1])
			}
			n, err := b.Build()
			if err == nil {
				t.Fatalf("accepted %v as %d links", links, n.Links())
			}
		})
	}
}

// TestLinksSorted: links given out of order come back from Link in
// ascending (u, v) order with u < v.
func TestLinksSorted(t *testing.T) {
	b := NewBuilder(4, 0)
	b.Link(2, 3)
	b.Link(3, 0)
	b.Link(0, 1)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]NodeID{{0, 1}, {0, 3}, {2, 3}}
	if n.Links() != len(want) {
		t.Fatalf("%d links, want %d", n.Links(), len(want))
	}
	for k, w := range want {
		if u, v := n.Link(k); u != w[0] || v != w[1] {
			t.Fatalf("link %d is {%d,%d}, want {%d,%d}", k, u, v, w[0], w[1])
		}
	}
}

func TestSwitchDistancesPathAndCycle(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *Network
		src  NodeID
		want []int32
	}{
		{"path5 from 0", pathNet(t, 5), 0, []int32{0, 1, 2, 3, 4}},
		{"path5 from 3", pathNet(t, 5), 3, []int32{3, 2, 1, 0, 1}},
		{"cycle6 from 0", cycleNet(t, 6), 0, []int32{0, 1, 2, 3, 2, 1}},
		{"cycle5 from 2", cycleNet(t, 5), 2, []int32{2, 1, 0, 1, 2}},
		{"single switch", pathNet(t, 1), 0, []int32{0}},
	} {
		dist, reached := distances(c.net, c.src, nil)
		if !slices.Equal(dist, c.want) || reached != len(c.want) {
			t.Errorf("%s: dist %v reached %d, want %v reached %d", c.name, dist, reached, c.want, len(c.want))
		}
	}
}

// TestSwitchDistancesMaskCutsBridge: a mask over a bridge leaves the far
// side at −1 and lowers the reached count; a mask over a cycle link only
// lengthens the way round.
func TestSwitchDistancesMaskCutsBridge(t *testing.T) {
	n := pathNet(t, 5)
	down := bitset.New(len(n.Channels))
	c := n.ChannelBetween(2, 3)
	down.Set(int(c))
	down.Set(int(c.Reverse()))
	dist, reached := distances(n, 0, down)
	if want := []int32{0, 1, 2, -1, -1}; !slices.Equal(dist, want) || reached != 3 {
		t.Fatalf("cut path: dist %v reached %d, want %v reached 3", dist, reached, want)
	}
	if dist, reached := distances(n, 4, down); !slices.Equal(dist, []int32{-1, -1, -1, 1, 0}) || reached != 2 {
		t.Fatalf("cut path from 4: dist %v reached %d", dist, reached)
	}

	cyc := cycleNet(t, 6)
	down = bitset.New(len(cyc.Channels))
	c = cyc.ChannelBetween(0, 1)
	down.Set(int(c))
	down.Set(int(c.Reverse()))
	if dist, reached := distances(cyc, 0, down); !slices.Equal(dist, []int32{0, 5, 4, 3, 2, 1}) || reached != 6 {
		t.Fatalf("cut cycle: dist %v reached %d", dist, reached)
	}
}

// TestSwitchDistancesComponents: with links 1-2 and 2-3 of a 5-path masked,
// each component is exactly what a search from one of its switches
// reaches; with no mask every switch is reached.
func TestSwitchDistancesComponents(t *testing.T) {
	n := pathNet(t, 5)
	down := bitset.New(len(n.Channels))
	for _, l := range [][2]NodeID{{1, 2}, {2, 3}} {
		c := n.ChannelBetween(l[0], l[1])
		down.Set(int(c))
		down.Set(int(c.Reverse()))
	}
	for _, c := range []struct {
		src     NodeID
		want    []int32
		reached int
	}{
		{0, []int32{0, 1, -1, -1, -1}, 2},
		{2, []int32{-1, -1, 0, -1, -1}, 1},
		{4, []int32{-1, -1, -1, 1, 0}, 2},
	} {
		dist, reached := distances(n, c.src, down)
		if !slices.Equal(dist, c.want) || reached != c.reached {
			t.Errorf("from %d: dist %v reached %d, want %v reached %d", c.src, dist, reached, c.want, c.reached)
		}
	}
	for _, s := range []int{1, 6} {
		if net := pathNet(t, s); !reachesAll(net) {
			t.Errorf("unmasked path of %d switches is not all reached", s)
		}
	}
}

// TestSwitchDistancesLipschitz: on every zoo family, BFS distances change
// by at most one across every link, and every switch is reached.
func TestSwitchDistancesLipschitz(t *testing.T) {
	for _, spec := range []string{"lattice:64", "gnm:48+24", "mesh:5x7", "torus:6x5", "hypercube:5", "fattree:3x3"} {
		sp, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		n, err := sp.Build(7)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, src := range []NodeID{0, NodeID(n.NumSwitches / 2), NodeID(n.NumSwitches - 1)} {
			dist, reached := distances(n, src, nil)
			if reached != n.NumSwitches {
				t.Fatalf("%s from %d: reached %d of %d", spec, src, reached, n.NumSwitches)
			}
			for k := 0; k < n.Links(); k++ {
				u, v := n.Link(k)
				if d := dist[u] - dist[v]; d < -1 || d > 1 {
					t.Fatalf("%s from %d: link {%d,%d} spans distances %d and %d", spec, src, u, v, dist[u], dist[v])
				}
			}
		}
	}
}

func TestCenterDiameter(t *testing.T) {
	for _, c := range []struct {
		name             string
		net              *Network
		center, diameter int
	}{
		{"path5", pathNet(t, 5), 2, 4},
		{"single switch", pathNet(t, 1), 0, 0},
		{"figure1", mustFig1(t), 2, 3},
	} {
		if got := c.net.Center(); int(got) != c.center {
			t.Errorf("%s: center %d, want %d", c.name, got, c.center)
		}
		if got := c.net.Diameter(); got != c.diameter {
			t.Errorf("%s: diameter %d, want %d", c.name, got, c.diameter)
		}
	}
}

// TestCenterTieBreaksToSmallestID: among switches of equal least
// eccentricity the smallest ID is the centre.
func TestCenterTieBreaksToSmallestID(t *testing.T) {
	for _, c := range []struct {
		name   string
		net    *Network
		center NodeID
	}{
		{"path4", pathNet(t, 4), 1},   // switches 1 and 2 tie at eccentricity 2
		{"cycle4", cycleNet(t, 4), 0}, // every switch has eccentricity 2
	} {
		if got := c.net.Center(); got != c.center {
			t.Errorf("%s: center %d, want %d", c.name, got, c.center)
		}
	}
}

// TestBuildAllocs bounds a build's allocations: the generator's appends
// plus a fixed handful of flat arrays, never one per link or switch.
func TestBuildAllocs(t *testing.T) {
	sp, err := ParseSpec("fattree:8x4")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sp.Build(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("fattree:8x4 build makes %.0f allocations, want at most 64", allocs)
	}
}

func BenchmarkTopologyBuild(b *testing.B) {
	for _, spec := range []string{"lattice:1024", "gnm:1024+256", "mesh:32x32", "fattree:8x4", "fattree:16x4"} {
		sp, err := ParseSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sp.Build(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
