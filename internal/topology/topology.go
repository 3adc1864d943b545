package topology

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/rng"
)

// NodeID identifies a node (switch or processor). Switches occupy IDs
// [0, NumSwitches); processors occupy [NumSwitches, NumSwitches+NumProcs).
type NodeID int32

// ChannelID identifies a unidirectional channel.
type ChannelID int32

// None is the nil value for channel references.
const None ChannelID = -1

// NodeKind distinguishes switches from processors.
type NodeKind uint8

const (
	// Switch is a routing switch (vertex in V1).
	Switch NodeKind = iota
	// Processor is a workstation attached to one switch (vertex in V2).
	Processor
)

func (k NodeKind) String() string {
	if k == Switch {
		return "switch"
	}
	return "processor"
}

// Channel is one unidirectional channel. Channels come in pairs: channels
// 2k and 2k+1 are the two directions of one link, so a channel's ID is its
// index in Network.Channels and its reverse is ChannelID.Reverse.
type Channel struct {
	Src NodeID
	Dst NodeID
}

// Reverse returns the opposite direction of c's link.
func (c ChannelID) Reverse() ChannelID { return c ^ 1 }

// Network is an immutable switch+processor network, held as one flat CSR
// over paired channels. The layout is part of the contract:
//   - channels 2k and 2k+1 are the two directions of one link;
//   - switch–switch pairs come first, in sorted edge order, each from its
//     smaller endpoint first; one pair per processor follows, in processor
//     order, the switch→processor channel first;
//   - a switch's Out lists its switch neighbours first, in ascending ID,
//     then its processors in attach order;
//   - a processor's Out is its one up channel.
//
// Every Out list is in ascending channel ID. The network stores only the
// channels' endpoints, the out CSR and the processors of each switch;
// reverses, in-channels (Out(v)[i].Reverse()), the link count, a
// processor's switch and the switch graph all follow from the numbering.
type Network struct {
	NumSwitches int
	NumProcs    int
	Channels    []Channel
	// Node v's outgoing channels are outIDs[outOff[v]:outOff[v+1]].
	outOff []int32
	outIDs []ChannelID
	// Switch sw's processors are procIDs[procOff[sw]:procOff[sw+1]].
	procOff []int32
	procIDs []NodeID
	// Coords holds optional lattice coordinates per switch (nil if the
	// builder did not place switches geometrically).
	Coords [][2]int
}

// N returns the total node count (switches + processors).
func (n *Network) N() int { return n.NumSwitches + n.NumProcs }

// IsSwitch reports whether id names a switch.
func (n *Network) IsSwitch(id NodeID) bool {
	return id >= 0 && int(id) < n.NumSwitches
}

// IsProcessor reports whether id names a processor.
func (n *Network) IsProcessor(id NodeID) bool {
	return int(id) >= n.NumSwitches && int(id) < n.N()
}

// Kind returns the node kind of id.
func (n *Network) Kind(id NodeID) NodeKind {
	if n.IsSwitch(id) {
		return Switch
	}
	return Processor
}

// SwitchOf returns the switch a processor is attached to. For a switch it
// returns the switch itself. Processor p's link is the pair numbered
// Links() + p − NumSwitches, and its down channel leaves the switch.
func (n *Network) SwitchOf(id NodeID) NodeID {
	if n.IsSwitch(id) {
		return id
	}
	return n.Channels[2*(n.Links()+int(id)-n.NumSwitches)].Src
}

// ProcessorsOf returns the processors attached to a switch, in attach order
// (shared slice).
func (n *Network) ProcessorsOf(sw NodeID) []NodeID {
	if !n.IsSwitch(sw) {
		panic(fmt.Sprintf("topology: ProcessorsOf(%d): not a switch", sw))
	}
	return n.procIDs[n.procOff[sw]:n.procOff[sw+1]]
}

// Out returns the outgoing channels of a node (shared slice).
func (n *Network) Out(id NodeID) []ChannelID { return n.outIDs[n.outOff[id]:n.outOff[id+1]] }

// SwitchOut returns the switch-neighbour prefix of Out(sw): the channels to
// sw's neighbour switches, in ascending neighbour ID (shared slice).
func (n *Network) SwitchOut(sw NodeID) []ChannelID {
	return n.outIDs[n.outOff[sw] : n.outOff[sw+1]-(n.procOff[sw+1]-n.procOff[sw])]
}

// Chan returns the channel record for id.
func (n *Network) Chan(id ChannelID) *Channel { return &n.Channels[id] }

// ChannelBetween returns the channel from src to dst, or None.
func (n *Network) ChannelBetween(src, dst NodeID) ChannelID {
	for _, c := range n.Out(src) {
		if n.Channels[c].Dst == dst {
			return c
		}
	}
	return None
}

// Links returns the number of switch–switch links: the switch pairs that
// precede the processor pairs in Channels.
func (n *Network) Links() int { return len(n.Channels)/2 - n.NumProcs }

// Link returns the endpoints of switch–switch link k, the pair 2k, smaller
// endpoint first. Links are numbered in ascending (u, v) order.
func (n *Network) Link(k int) (u, v NodeID) {
	c := n.Channels[2*k]
	return c.Src, c.Dst
}

// SwitchDistances runs one breadth-first search of the switch graph from
// switch src, skipping the channels set in down (nil: every link is live).
// It writes each switch's hop distance into dist, −1 for a switch src does
// not reach, and returns how many switches it reached; queue[:reached] is
// the visit order, neighbours in ascending ID. dist and queue are
// caller-owned scratch of at least NumSwitches entries, so the call
// allocates nothing.
func (n *Network) SwitchDistances(src NodeID, down *bitset.Set, dist, queue []int32) (reached int) {
	dist, queue = dist[:n.NumSwitches], queue[:n.NumSwitches]
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = int32(src)
	reached = 1
	for head := 0; head < reached; head++ {
		u := queue[head]
		next := dist[u] + 1
		for _, c := range n.SwitchOut(NodeID(u)) {
			if down != nil && down.Test(int(c)) {
				continue
			}
			if v := n.Channels[c].Dst; dist[v] < 0 {
				dist[v] = next
				queue[reached] = int32(v)
				reached++
			}
		}
	}
	return reached
}

// eccentricities returns every switch's largest hop distance to another
// switch, one search per switch. A built network is connected, so the last
// switch each search visits is the farthest.
func (n *Network) eccentricities() []int32 {
	s := n.NumSwitches
	ecc, dist, queue := make([]int32, s), make([]int32, s), make([]int32, s)
	for sw := range ecc {
		reached := n.SwitchDistances(NodeID(sw), nil, dist, queue)
		ecc[sw] = dist[queue[reached-1]]
	}
	return ecc
}

// Center returns the switch of least eccentricity, the smallest ID among
// ties.
func (n *Network) Center() NodeID {
	ecc := n.eccentricities()
	return NodeID(slices.Index(ecc, slices.Min(ecc)))
}

// Diameter returns the switch graph's largest eccentricity.
func (n *Network) Diameter() int { return int(slices.Max(n.eccentricities())) }

// Ports returns the number of ports in use at a switch (switch links +
// attached processors).
func (n *Network) Ports(sw NodeID) int {
	if !n.IsSwitch(sw) {
		panic(fmt.Sprintf("topology: Ports(%d): not a switch", sw))
	}
	return len(n.Out(sw))
}

// Builder accumulates a network description and validates it into a Network.
type Builder struct {
	numSwitches int
	maxPorts    int
	swEdges     [][2]int
	procs       []NodeID // attached switch per processor, in processor order
	coords      [][2]int
}

// NewBuilder starts a network with the given switch count and per-switch
// port budget (the paper uses 8-port switches).
func NewBuilder(numSwitches, maxPorts int) *Builder {
	return &Builder{numSwitches: numSwitches, maxPorts: maxPorts}
}

// Link adds a bidirectional switch-switch link.
func (b *Builder) Link(u, v int) *Builder {
	b.swEdges = append(b.swEdges, [2]int{u, v})
	return b
}

// AttachProcessor attaches one new processor to switch sw and returns the
// builder for chaining. Processor IDs are assigned in attachment order.
func (b *Builder) AttachProcessor(sw int) *Builder {
	b.procs = append(b.procs, NodeID(sw))
	return b
}

// SetCoords records lattice coordinates for the switches (optional).
func (b *Builder) SetCoords(coords [][2]int) *Builder {
	b.coords = coords
	return b
}

// Build validates and freezes the network. It checks the links (endpoints
// in range, no self-loop, no pair twice), the processors' switches, the
// port budgets and the connectivity of the switch graph, then lays the
// channels out as Network documents.
func (b *Builder) Build() (*Network, error) {
	s := b.numSwitches
	if s <= 0 {
		return nil, fmt.Errorf("topology: need at least one switch, got %d", s)
	}
	for _, e := range b.swEdges {
		if u, v := e[0], e[1]; u < 0 || u >= s || v < 0 || v >= s {
			return nil, fmt.Errorf("topology: link {%d,%d} out of range [0,%d)", u, v, s)
		} else if u == v {
			return nil, fmt.Errorf("topology: self-loop at switch %d", u)
		}
	}
	// Bucket the links by smaller endpoint and sort each bucket's larger
	// endpoints: the switch pairs in ascending (u, v) order, with a
	// repeated pair side by side.
	lo := func(i int) NodeID { return NodeID(min(b.swEdges[i][0], b.swEdges[i][1])) }
	off, order := groupCSR(s, len(b.swEdges), int32(0), lo)
	hi := make([]NodeID, len(order))
	for i, e := range order {
		hi[i] = NodeID(max(b.swEdges[e][0], b.swEdges[e][1]))
	}
	for u := 0; u < s; u++ {
		bucket := hi[off[u]:off[u+1]]
		slices.Sort(bucket)
		for i := 1; i < len(bucket); i++ {
			if bucket[i] == bucket[i-1] {
				return nil, fmt.Errorf("topology: duplicate link {%d,%d}", u, bucket[i])
			}
		}
	}
	for pi, sw := range b.procs {
		if int(sw) < 0 || int(sw) >= s {
			return nil, fmt.Errorf("topology: processor %d attached to invalid switch %d", pi, sw)
		}
	}
	n := &Network{
		NumSwitches: s,
		NumProcs:    len(b.procs),
		Channels:    make([]Channel, 0, 2*(len(hi)+len(b.procs))),
		Coords:      b.coords,
	}
	for u := 0; u < s; u++ {
		for _, v := range hi[off[u]:off[u+1]] {
			n.Channels = append(n.Channels, Channel{NodeID(u), v}, Channel{v, NodeID(u)})
		}
	}
	for pi, sw := range b.procs {
		p := NodeID(s + pi)
		n.Channels = append(n.Channels, Channel{sw, p}, Channel{p, sw})
	}
	n.outOff, n.outIDs = groupCSR(n.N(), len(n.Channels), ChannelID(0), func(c int) NodeID { return n.Channels[c].Src })
	n.procOff, n.procIDs = groupCSR(s, len(b.procs), NodeID(s), func(pi int) NodeID { return b.procs[pi] })
	dist := make([]int32, s)
	if n.SwitchDistances(0, nil, dist, make([]int32, s)) < s {
		return nil, fmt.Errorf("topology: switch graph is disconnected: switch %d is unreachable from switch 0", slices.Index(dist, -1))
	}
	// Port budget check.
	if b.maxPorts > 0 {
		for sw := 0; sw < s; sw++ {
			if p := n.Ports(NodeID(sw)); p > b.maxPorts {
				return nil, fmt.Errorf("topology: switch %d uses %d ports, budget %d", sw, p, b.maxPorts)
			}
		}
	}
	if b.coords != nil && len(b.coords) != s {
		return nil, fmt.Errorf("topology: %d coords for %d switches", len(b.coords), s)
	}
	return n, nil
}

// groupCSR lays items 0..n-1 out by group, key(i) naming item i's group:
// group g's items, numbered base+i, are ids[off[g]:off[g+1]] in ascending
// order. After the counting pass's inclusive prefix sums off[g] is the end
// of g's block, and placing the items in descending order, each just below
// its block's cursor, leaves off[g] at the block's start.
func groupCSR[T ~int32](groups, n int, base T, key func(i int) NodeID) (off []int32, ids []T) {
	off = make([]int32, groups+1)
	for i := 0; i < n; i++ {
		off[key(i)]++
	}
	for g := 1; g <= groups; g++ {
		off[g] += off[g-1]
	}
	ids = make([]T, n)
	for i := n - 1; i >= 0; i-- {
		g := key(i)
		off[g]--
		ids[off[g]] = base + T(i)
	}
	return off, ids
}

// WithoutLink returns a copy of the network with the bidirectional
// switch-switch link {u, v} removed — the failure model of the Autonet-style
// self-configuring networks the paper targets. It errors if the link does
// not exist or its removal disconnects the switch graph (an unreachable
// switch cannot be relabeled).
func (n *Network) WithoutLink(u, v int) (*Network, error) {
	if u < 0 || u >= n.NumSwitches || v < 0 || v >= n.NumSwitches {
		return nil, fmt.Errorf("topology: link {%d,%d} out of switch range", u, v)
	}
	gone := n.ChannelBetween(NodeID(u), NodeID(v))
	if gone == None {
		return nil, fmt.Errorf("topology: no link {%d,%d}", u, v)
	}
	b := NewBuilder(n.NumSwitches, 0)
	for k := 0; k < n.Links(); k++ {
		if ChannelID(2*k) != gone&^1 { // gone&^1: the link's first channel
			u, v := n.Link(k)
			b.Link(int(u), int(v))
		}
	}
	for p := n.NumSwitches; p < n.N(); p++ {
		b.AttachProcessor(int(n.SwitchOf(NodeID(p))))
	}
	if n.Coords != nil {
		b.SetCoords(n.Coords)
	}
	out, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("topology: removing link {%d,%d}: %w", u, v, err)
	}
	return out, nil
}

// LatticeConfig parameterizes the paper's random irregular topology.
type LatticeConfig struct {
	// Switches is the number of switches (the paper's "N node network" has
	// N switches, each with one processor).
	Switches int
	// ProcsPerSwitch is the number of processors attached to every switch;
	// the paper uses 1 "to maximize the probability of contention".
	ProcsPerSwitch int
	// MaxPorts is the per-switch port budget; the paper uses 8.
	MaxPorts int
	// Seed drives the deterministic generator.
	Seed uint64
}

// DefaultLattice returns the paper's configuration for n switches.
func DefaultLattice(n int, seed uint64) LatticeConfig {
	return LatticeConfig{Switches: n, ProcsPerSwitch: 1, MaxPorts: 8, Seed: seed}
}

// RandomLattice generates a random irregular network per the paper's method:
// switches occupy random points of an integer lattice and are connected to
// every adjacent occupied lattice point (so at most 4 inter-switch links per
// switch). Occupied cells are grown as a uniformly random connected lattice
// animal so the switch graph is guaranteed connected, which the paper
// implicitly requires. Every switch receives ProcsPerSwitch processors.
func RandomLattice(cfg LatticeConfig) (*Network, error) {
	if cfg.Switches <= 0 {
		return nil, fmt.Errorf("topology: lattice with %d switches", cfg.Switches)
	}
	if cfg.ProcsPerSwitch < 0 {
		return nil, fmt.Errorf("topology: negative ProcsPerSwitch")
	}
	r := rng.New(cfg.Seed)

	type cell struct{ x, y int }
	occupied := map[cell]int{} // cell -> switch ID
	var coords []cell
	frontier := []cell{}
	inFrontier := map[cell]bool{}

	add := func(c cell) {
		id := len(coords)
		occupied[c] = id
		coords = append(coords, c)
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nb := cell{c.x + d[0], c.y + d[1]}
			if _, ok := occupied[nb]; !ok && !inFrontier[nb] {
				frontier = append(frontier, nb)
				inFrontier[nb] = true
			}
		}
	}

	add(cell{0, 0})
	for len(coords) < cfg.Switches {
		// Pick a uniformly random frontier cell (swap-remove).
		i := r.Intn(len(frontier))
		c := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		delete(inFrontier, c)
		if _, ok := occupied[c]; ok {
			continue
		}
		add(c)
	}

	b := NewBuilder(cfg.Switches, cfg.MaxPorts)
	cc := make([][2]int, len(coords))
	for i, c := range coords {
		cc[i] = [2]int{c.x, c.y}
	}
	b.SetCoords(cc)
	// Deterministic edge order: sort cells, add edge to +x and +y neighbors.
	ids := make([]int, len(coords))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, c int) bool {
		ca, cb := coords[ids[a]], coords[ids[c]]
		if ca.x != cb.x {
			return ca.x < cb.x
		}
		return ca.y < cb.y
	})
	for _, id := range ids {
		c := coords[id]
		for _, d := range [][2]int{{1, 0}, {0, 1}} {
			if nb, ok := occupied[cell{c.x + d[0], c.y + d[1]}]; ok {
				b.Link(id, nb)
			}
		}
	}
	for sw := 0; sw < cfg.Switches; sw++ {
		for p := 0; p < cfg.ProcsPerSwitch; p++ {
			b.AttachProcessor(sw)
		}
	}
	return b.Build()
}

// GNMConfig parameterizes the general (non-lattice) irregular generator.
type GNMConfig struct {
	// Switches is the switch count.
	Switches int
	// ExtraLinks is the number of links beyond the spanning tree
	// (total links = Switches-1+ExtraLinks).
	ExtraLinks int
	// MaxSwitchLinks caps inter-switch links per switch (0 = unlimited).
	MaxSwitchLinks int
	// ProcsPerSwitch attaches processors (default 0 means 1).
	ProcsPerSwitch int
	// MaxPorts is the per-switch port budget (0 = unchecked).
	MaxPorts int
	Seed     uint64
}

// RandomIrregular builds a connected random irregular network without the
// lattice constraint: a uniform random spanning tree plus ExtraLinks random
// links, respecting per-switch degree caps. The paper's own experiments use
// the lattice model (physical proximity); this generator provides the
// fully-arbitrary topologies the algorithm is claimed to handle, for
// robustness testing.
func RandomIrregular(cfg GNMConfig) (*Network, error) {
	if cfg.Switches <= 0 {
		return nil, fmt.Errorf("topology: RandomIrregular with %d switches", cfg.Switches)
	}
	procs := cfg.ProcsPerSwitch
	if procs <= 0 {
		procs = 1
	}
	r := rng.New(cfg.Seed)
	deg := make([]int, cfg.Switches)
	capOK := func(u int) bool {
		return cfg.MaxSwitchLinks <= 0 || deg[u] < cfg.MaxSwitchLinks
	}
	b := NewBuilder(cfg.Switches, cfg.MaxPorts)
	// Random spanning tree (random attachment order): guarantees
	// connectivity; degree caps below 2 are infeasible for trees, so the
	// tree ignores the cap on the parent side when forced.
	perm := r.Perm(cfg.Switches)
	have := map[[2]int]bool{}
	link := func(u, v int) {
		a, c := u, v
		if a > c {
			a, c = c, a
		}
		have[[2]int{a, c}] = true
		b.Link(u, v)
		deg[u]++
		deg[v]++
	}
	for i := 1; i < cfg.Switches; i++ {
		// Prefer a parent with spare degree; fall back to any.
		parent := perm[r.Intn(i)]
		for attempts := 0; attempts < 8 && !capOK(parent); attempts++ {
			parent = perm[r.Intn(i)]
		}
		link(perm[i], parent)
	}
	added := 0
	for attempts := 0; added < cfg.ExtraLinks && attempts < 50*cfg.ExtraLinks+100; attempts++ {
		u, v := r.Intn(cfg.Switches), r.Intn(cfg.Switches)
		if u == v || !capOK(u) || !capOK(v) {
			continue
		}
		a, c := u, v
		if a > c {
			a, c = c, a
		}
		if have[[2]int{a, c}] {
			continue
		}
		link(u, v)
		added++
	}
	for sw := 0; sw < cfg.Switches; sw++ {
		for p := 0; p < procs; p++ {
			b.AttachProcessor(sw)
		}
	}
	return b.Build()
}

// Figure1 builds the example network from Figure 1 of the paper. The
// paper's switches 1, 2, 3, 4, 6 and 7 are switches 0–5 here, and its
// leaves 5, 8, 9, 10 and 11 are processors 6–10:
//
//	paper vertex  1  2  3  4  6  7 |  5  8  9  10  11
//	our ID        0  1  2  3  4  5 |  6  7  8   9  10
//
// The links are the figure's 1-2, 1-3, 2-3, 3-4, 4-6 and 4-7. Leaf 5 hangs
// off switch 2, leaves 8, 9 and 10 off switch 6, and leaf 11 off switch 7.
// The builder lays out only the connectivity: which links are tree links
// is the up*/down* labeling's choice (package updown), not the builder's.
func Figure1() (*Network, error) {
	// Our switch IDs: s1=0 s2=1 s3=2 s4=3 s6=4 s7=5.
	b := NewBuilder(6, 8)
	b.Link(0, 1) // 1-2
	b.Link(0, 2) // 1-3
	b.Link(1, 2) // 2-3
	b.Link(2, 3) // 3-4
	b.Link(3, 4) // 4-6
	b.Link(3, 5) // 4-7
	// Processors: paper node 5 on switch 2; 8,9,10 on switch 6; 11 on 7.
	b.AttachProcessor(1) // proc ID 6  (paper node 5)
	b.AttachProcessor(4) // proc ID 7  (paper node 8)
	b.AttachProcessor(4) // proc ID 8  (paper node 9)
	b.AttachProcessor(4) // proc ID 9  (paper node 10)
	b.AttachProcessor(5) // proc ID 10 (paper node 11)
	return b.Build()
}

// Mesh builds a w×h 2-D mesh of switches, procsPerSwitch processors each.
// Regular topologies let us explore the paper's future-work direction of
// spanning-tree selection on regular networks.
func Mesh(w, h, procsPerSwitch int) (*Network, error) {
	if mulPositive(w, h) < 0 {
		return nil, fmt.Errorf("topology: mesh %dx%d: dims must be positive and their product fit an int", w, h)
	}
	b := NewBuilder(w*h, 0)
	id := func(x, y int) int { return y*w + x }
	coords := make([][2]int, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			coords[id(x, y)] = [2]int{x, y}
			if x+1 < w {
				b.Link(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.Link(id(x, y), id(x, y+1))
			}
		}
	}
	b.SetCoords(coords)
	for sw := 0; sw < w*h; sw++ {
		for p := 0; p < procsPerSwitch; p++ {
			b.AttachProcessor(sw)
		}
	}
	return b.Build()
}

// Torus builds a w×h 2-D torus (wraparound mesh). Requires w, h >= 3 so the
// graph stays simple.
func Torus(w, h, procsPerSwitch int) (*Network, error) {
	if w < 3 || h < 3 {
		return nil, fmt.Errorf("topology: torus needs dims >= 3, got %dx%d", w, h)
	}
	if mulPositive(w, h) < 0 {
		return nil, fmt.Errorf("topology: torus %dx%d overflows the switch count", w, h)
	}
	b := NewBuilder(w*h, 0)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.Link(id(x, y), id((x+1)%w, y))
			b.Link(id(x, y), id(x, (y+1)%h))
		}
	}
	for sw := 0; sw < w*h; sw++ {
		for p := 0; p < procsPerSwitch; p++ {
			b.AttachProcessor(sw)
		}
	}
	return b.Build()
}

// Hypercube builds a d-dimensional hypercube of switches.
func Hypercube(dim, procsPerSwitch int) (*Network, error) {
	if dim < 1 || dim > 16 {
		return nil, fmt.Errorf("topology: hypercube dim %d out of range", dim)
	}
	n := 1 << dim
	b := NewBuilder(n, 0)
	for u := 0; u < n; u++ {
		for bit := 0; bit < dim; bit++ {
			v := u ^ (1 << bit)
			if u < v {
				b.Link(u, v)
			}
		}
	}
	for sw := 0; sw < n; sw++ {
		for p := 0; p < procsPerSwitch; p++ {
			b.AttachProcessor(sw)
		}
	}
	return b.Build()
}

// Stats summarizes a network for reports and the topogen tool.
type Stats struct {
	Switches, Processors   int
	SwitchLinks            int
	Channels               int
	MinDeg, MaxDeg         int
	AvgDeg                 float64
	SwitchGraphDiameter    int
	MaxPortsUsed           int
	ProcessorsPerSwitchMin int
	ProcessorsPerSwitchMax int
}

// ComputeStats derives summary statistics.
func ComputeStats(n *Network) Stats {
	s := Stats{
		Switches:               n.NumSwitches,
		Processors:             n.NumProcs,
		SwitchLinks:            n.Links(),
		Channels:               len(n.Channels),
		MinDeg:                 n.NumSwitches,
		SwitchGraphDiameter:    n.Diameter(),
		ProcessorsPerSwitchMin: 1 << 30,
	}
	var degSum int
	for sw := 0; sw < n.NumSwitches; sw++ {
		d := len(n.SwitchOut(NodeID(sw)))
		degSum += d
		if d < s.MinDeg {
			s.MinDeg = d
		}
		if d > s.MaxDeg {
			s.MaxDeg = d
		}
		if p := n.Ports(NodeID(sw)); p > s.MaxPortsUsed {
			s.MaxPortsUsed = p
		}
		np := len(n.ProcessorsOf(NodeID(sw)))
		if np < s.ProcessorsPerSwitchMin {
			s.ProcessorsPerSwitchMin = np
		}
		if np > s.ProcessorsPerSwitchMax {
			s.ProcessorsPerSwitchMax = np
		}
	}
	s.AvgDeg = float64(degSum) / float64(n.NumSwitches)
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"switches=%d procs=%d links=%d channels=%d deg[min=%d avg=%.2f max=%d] diameter=%d ports<=%d procs/switch=[%d,%d]",
		s.Switches, s.Processors, s.SwitchLinks, s.Channels,
		s.MinDeg, s.AvgDeg, s.MaxDeg, s.SwitchGraphDiameter, s.MaxPortsUsed,
		s.ProcessorsPerSwitchMin, s.ProcessorsPerSwitchMax)
}
