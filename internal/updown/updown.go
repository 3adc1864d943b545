package updown

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/topology"
)

// Class is the SPAM classification of a unidirectional channel.
type Class uint8

const (
	// Up channels point toward the root (tree or cross; SPAM does not
	// distinguish them).
	Up Class = iota
	// DownTree channels are tree channels pointing away from the root.
	DownTree
	// DownCross channels are cross channels pointing away from the root.
	DownCross
)

func (c Class) String() string {
	switch c {
	case Up:
		return "up"
	case DownTree:
		return "down-tree"
	case DownCross:
		return "down-cross"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// RootStrategy selects the spanning-tree root switch.
type RootStrategy uint8

const (
	// RootMinID picks switch 0 (Autonet-style arbitrary choice).
	RootMinID RootStrategy = iota
	// RootMaxDegree picks the highest-degree switch (smallest ID on ties).
	RootMaxDegree
	// RootCenter picks a graph center of the switch graph, minimizing tree
	// depth (future-work ablation: judicious spanning-tree selection).
	RootCenter
)

func (s RootStrategy) String() string {
	switch s {
	case RootMinID:
		return "min-id"
	case RootMaxDegree:
		return "max-degree"
	case RootCenter:
		return "center"
	}
	return fmt.Sprintf("RootStrategy(%d)", uint8(s))
}

// ParseRootStrategy parses the wire form of a root strategy. The empty
// string is min-id (the zero value), so omitted request/manifest fields keep
// the Autonet-style default.
func ParseRootStrategy(name string) (RootStrategy, error) {
	switch name {
	case "", "min-id":
		return RootMinID, nil
	case "max-degree":
		return RootMaxDegree, nil
	case "center":
		return RootCenter, nil
	}
	return 0, fmt.Errorf("updown: unknown root strategy %q (min-id | max-degree | center)", name)
}

// Labeling is the full up*/down* structure for a network.
//
// A Labeling can carry a *failed-channel mask* (Down): masked channels are
// physically present in the network but excluded from the spanning tree,
// from routing legality and from the selection distances — the Autonet-style
// view of a network with links down. Relabel recomputes the whole structure
// in place for a new mask, reusing every internal allocation, which is the
// hot-reconfiguration path the fault-injection engine drives.
//
// A built labeling holds flat arrays over nodes, switches and channels, and
// no switch×switch or switch×node relation. Tree ancestry is an interval
// test on a preorder numbering of the spanning tree; the processors below a
// switch are one range of the tree order (ProcRange), which the
// distribution phase counts in a rank-keyed TreeSet; extended ancestry is a
// walk over down-cross channels for one query (IsExtendedAncestor) and, for
// the table compiler, a word matrix that ExtendedDescendantRows fills into
// caller-owned storage. A processor is a leaf: its (extended) ancestors are
// itself plus those of its switch, and it is nobody else's, so it adds no
// information its switch does not hold.
type Labeling struct {
	Net  *topology.Network
	Root topology.NodeID

	// Level is the BFS level of every node; root has level 0, processors
	// sit one level below their switch.
	Level []int32
	// Parent is the spanning-tree parent of every node (-1 for root).
	Parent []topology.NodeID
	// ParentChan is the down-tree channel parent→node (None for root).
	ParentChan []topology.ChannelID
	// ClassOf classifies every channel.
	ClassOf []Class
	// Down marks failed channels (nil or empty = none). Failed channels
	// keep a nominal class from the level rules (so structural checks keep
	// working) but are never tree channels, never legal routing candidates
	// and never carry extended ancestry.
	Down *bitset.Set

	// pre and end number the spanning tree's switches in preorder, so the
	// subtree of switch u is the switches w with pre[u] ≤ pre[w] < end[u]:
	// tree ancestry in two comparisons and 8 bytes per switch.
	pre []int32
	end []int32
	// rank and proc number the processors in tree order (treeorder.go):
	// rank[p−S] is processor p's position and proc[r] the processor at
	// position r. start[k] is the first rank of the switch in preorder slot
	// k, and start[S] = P, so the processors below switch u are the ranks
	// [start[pre[u]], start[end[u]]).
	rank  []int32
	proc  []topology.NodeID
	start []int32
	// childOff/childChans list each switch's down-tree channels to its tree
	// children in CSR form: switch sw's are
	// childChans[childOff[sw]:childOff[sw+1]], in ascending channel ID.
	childOff   []int32
	childChans []topology.ChannelID

	// liveOff/liveNbrs is the live (non-failed) switch graph in CSR form:
	// the neighbors of switch sw are liveNbrs[liveOff[sw]:liveOff[sw+1]],
	// in ascending switch ID, the order of Network.SwitchOut, so an empty
	// mask reproduces the base labeling bit-for-bit. Relabel rebuilds
	// it; the tree BFS, SwitchDistances and AllSwitchDistances walk it.
	liveOff  []int32
	liveNbrs []int32
	// queue is Relabel's BFS frontier. After Relabel it lists every switch
	// in BFS order, so each switch comes after its tree parent.
	queue []int32
}

// New computes the labeling for a network with the given root strategy.
func New(net *topology.Network, strategy RootStrategy) (*Labeling, error) {
	root, err := pickRoot(net, strategy)
	if err != nil {
		return nil, err
	}
	return NewWithRoot(net, root)
}

// NewWithRoot computes the labeling with an explicit root switch.
func NewWithRoot(net *topology.Network, root topology.NodeID) (*Labeling, error) {
	return NewWithDown(net, root, nil)
}

// NewWithDown computes the labeling with an explicit root switch and a
// failed-channel mask: channels marked in down (which must pair both
// directions of each failed link and contain no processor channels) are
// excluded from the spanning tree and from routing. A nil or empty mask
// yields exactly NewWithRoot's labeling.
func NewWithDown(net *topology.Network, root topology.NodeID, down *bitset.Set) (*Labeling, error) {
	if !net.IsSwitch(root) {
		return nil, fmt.Errorf("updown: root %d is not a switch", root)
	}
	l := &Labeling{Net: net, Root: root}
	if err := l.Relabel(down); err != nil {
		return nil, err
	}
	return l, nil
}

// Relabel recomputes the entire labeling in place for a new failed-channel
// mask, reusing every internal allocation (the per-node and per-channel
// arrays, the child CSR, the tree order, the live adjacency, the BFS
// queue). After the first call on a given Labeling it
// performs no heap allocation, which makes it the hot path of live
// reconfiguration. It fails — leaving the labeling in an unspecified but
// reusable state — if the mask disconnects the switch graph.
func (l *Labeling) Relabel(down *bitset.Set) error {
	net := l.Net
	total := net.N()
	s := net.NumSwitches
	if down != nil && down.Len() != len(net.Channels) {
		return fmt.Errorf("updown: down mask sized %d for %d channels", down.Len(), len(net.Channels))
	}
	l.ensureStorage()
	l.Down.Reset()
	if down != nil {
		for c := down.NextSet(0); c >= 0; c = down.NextSet(c + 1) {
			ch := net.Chan(topology.ChannelID(c))
			if net.IsProcessor(ch.Src) || net.IsProcessor(ch.Dst) {
				return fmt.Errorf("updown: processor channel %d cannot fail", c)
			}
			if rev := topology.ChannelID(c).Reverse(); !down.Test(int(rev)) {
				return fmt.Errorf("updown: down mask holds channel %d without its reverse %d", c, rev)
			}
			l.Down.Set(c)
		}
	}
	root := l.Root

	// The live switch graph, failed channels left out, so neither BFS
	// tests the mask per edge. SwitchOut lists neighbours in ascending ID.
	l.liveNbrs = l.liveNbrs[:0]
	for sw := 0; sw < s; sw++ {
		l.liveOff[sw] = int32(len(l.liveNbrs))
		for _, c := range net.SwitchOut(topology.NodeID(sw)) {
			if !l.Down.Test(int(c)) {
				l.liveNbrs = append(l.liveNbrs, int32(net.Chan(c).Dst))
			}
		}
	}
	l.liveOff[s] = int32(len(l.liveNbrs))

	// Spanning tree: BFS over the live switch graph from the root.
	for v := 0; v < total; v++ {
		l.ParentChan[v] = topology.None
	}
	l.bfs(int32(root), l.Level[:s], l.queue, l.Parent[:s])
	for sw := 0; sw < s; sw++ {
		if l.Level[sw] < 0 {
			return fmt.Errorf("updown: switch %d unreachable from root %d", sw, root)
		}
	}
	// Processors: leaves one level below their switch.
	for p := s; p < total; p++ {
		pid := topology.NodeID(p)
		sw := net.SwitchOf(pid)
		l.Level[p] = l.Level[sw] + 1
		l.Parent[p] = sw
	}

	// Classify channels. Failed channels cannot be tree edges (BFS never
	// traverses them, and a simple graph has one edge per switch pair), so
	// they fall through to the level rules of the cross branch.
	for i := range net.Channels {
		ch := &net.Channels[i]
		src, dst := ch.Src, ch.Dst
		switch {
		case net.IsProcessor(src): // processor -> switch: up tree
			l.ClassOf[i] = Up
		case net.IsProcessor(dst): // switch -> processor: down tree
			l.ClassOf[i] = DownTree
		case l.Parent[src] == dst || l.Parent[dst] == src: // tree edge
			if l.Parent[src] == dst { // toward root
				l.ClassOf[i] = Up
			} else {
				l.ClassOf[i] = DownTree
			}
		default: // cross channel between switches
			ls, ld := l.Level[src], l.Level[dst]
			switch {
			case ls > ld: // deeper -> shallower: toward root
				l.ClassOf[i] = Up
			case ls < ld:
				l.ClassOf[i] = DownCross
			case src > dst: // same level: larger ID -> smaller is up
				l.ClassOf[i] = Up
			default:
				l.ClassOf[i] = DownCross
			}
		}
	}

	// Parent channels, and each switch's child count summed into
	// childOff[sw].
	clear(l.childOff)
	for i := range net.Channels {
		ch := &net.Channels[i]
		if l.ClassOf[i] == DownTree && l.Parent[ch.Dst] == ch.Src {
			l.ParentChan[ch.Dst] = topology.ChannelID(i)
			l.childOff[ch.Src]++
		}
	}
	for v := 0; v < total; v++ {
		if topology.NodeID(v) != root && l.ParentChan[v] == topology.None {
			return fmt.Errorf("updown: node %d has no parent channel", v)
		}
	}
	// Child CSR: after the inclusive prefix sum childOff[sw] is the end of
	// sw's block; placing the children in descending channel ID, each one
	// just below its parent's cursor, leaves every block in ascending ID
	// and childOff[sw] at the block's start. The distribution fast path
	// emits outputs by scanning a block in place of the reference
	// implementation's sort, so the order matters.
	for sw := 1; sw <= s; sw++ {
		l.childOff[sw] += l.childOff[sw-1]
	}
	for i := len(net.Channels) - 1; i >= 0; i-- {
		ch := &net.Channels[i]
		if c := topology.ChannelID(i); l.ParentChan[ch.Dst] == c {
			l.childOff[ch.Src]--
			l.childChans[l.childOff[ch.Src]] = c
		}
	}

	l.buildIntervals()
	l.buildTreeOrder()
	return nil
}

// ensureStorage allocates (once) every array Relabel writes into.
func (l *Labeling) ensureStorage() {
	if l.Level != nil {
		return
	}
	net := l.Net
	total := net.N()
	s := net.NumSwitches
	l.Level = make([]int32, total)
	l.Parent = make([]topology.NodeID, total)
	l.ParentChan = make([]topology.ChannelID, total)
	l.ClassOf = make([]Class, len(net.Channels))
	l.Down = bitset.New(len(net.Channels))
	l.pre = make([]int32, s)
	l.end = make([]int32, s)
	l.rank = make([]int32, net.NumProcs)
	l.proc = make([]topology.NodeID, net.NumProcs)
	l.start = make([]int32, s+1)
	l.childOff = make([]int32, s+1)
	l.childChans = make([]topology.ChannelID, total-1)
	l.liveOff = make([]int32, s+1)
	l.liveNbrs = make([]int32, 0, 2*net.Links())
	l.queue = make([]int32, s)
}

// SwitchDistances writes into dist the hop distance from switch src to every
// switch of the live (non-failed) switch graph, by one BFS whose frontier is
// queue. Both slices belong to the caller and need length NumSwitches, so
// the call allocates nothing and goroutines sharing a labeling may run it
// concurrently. The failed-channel mask pairs both directions of a link, so
// distance is symmetric: dist is also every switch's distance to src.
func (l *Labeling) SwitchDistances(src topology.NodeID, dist, queue []int32) {
	l.bfs(int32(src), dist, queue, nil)
}

// AllSwitchDistances fills dist with the hop distance between every pair of
// switches of the live switch graph, row-major: dist[u·S+v] is the value
// SwitchDistances(u) writes at v. Relabel refuses a mask that disconnects
// the switches, so every entry is a distance. The BFS runs from 64 sources
// at once (Then et al., "The More the Merrier", VLDB 2014): bit i of a
// switch's word stands for source i of the batch, and a level expands only
// the switches on its frontier, so a batch expands no more switches than the
// 64 single-source runs it replaces. Distance is symmetric, so a batch writes
// each switch's distances to its sources into that switch's own row, 64
// contiguous entries. dist needs S·S entries, words 3·S and frontier 2·S;
// all belong to the caller, so the call allocates nothing.
func (l *Labeling) AllSwitchDistances(dist []int32, words []uint64, frontier []int32) {
	s := l.Net.NumSwitches
	w := words[:3*s]
	clear(w)
	off, nbrs := l.liveOff, l.liveNbrs
	for b0 := 0; b0 < s; b0 += 64 {
		k := min(64, s-b0)
		// w[v] holds the sources that have reached switch v, w[vis+v] those
		// that reached it at the current level, whose frontier is
		// frontier[cur:cur+n]. The next level collects into w[nxt+v] and
		// frontier[fut:]; the two halves swap every level.
		vis, nxt, cur, fut := s, 2*s, 0, s
		for i := 0; i < k; i++ {
			src := b0 + i
			w[src] = 1 << uint(i)
			w[vis+src] = 1 << uint(i)
			dist[src*s+src] = 0
			frontier[cur+i] = int32(src)
		}
		n := k
		for lvl := int32(1); n > 0; lvl++ {
			m := 0
			for _, u := range frontier[cur : cur+n] {
				x := w[vis+int(u)]
				w[vis+int(u)] = 0
				for _, v := range nbrs[off[u]:off[u+1]] {
					nv := x &^ w[v]
					if nv == 0 {
						continue
					}
					if w[nxt+int(v)] == 0 {
						frontier[fut+m] = v
						m++
					}
					w[nxt+int(v)] |= nv
					w[v] |= nv
					for row := int(v)*s + b0; nv != 0; nv &= nv - 1 {
						dist[row+bits.TrailingZeros64(nv)] = lvl
					}
				}
			}
			vis, nxt = nxt, vis
			cur, fut = fut, cur
			n = m
		}
		clear(w[:s])
	}
}

// bfs runs a breadth-first search of the live switch graph from src,
// writing hop counts into dist (-1 = unreached) and, when parent is
// non-nil, each switch's discoverer into parent (-1 for src and the
// unreached). queue receives the switches in visiting order.
func (l *Labeling) bfs(src int32, dist, queue []int32, parent []topology.NodeID) {
	for i := range dist {
		dist[i] = -1
	}
	for i := range parent {
		parent[i] = -1
	}
	dist[src] = 0
	queue[0] = src
	tail := 1
	for head := 0; head < tail; head++ {
		u := queue[head]
		for _, v := range l.liveNbrs[l.liveOff[u]:l.liveOff[u+1]] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				if parent != nil {
					parent[v] = topology.NodeID(u)
				}
				queue[tail] = v
				tail++
			}
		}
	}
}

func pickRoot(net *topology.Network, strategy RootStrategy) (topology.NodeID, error) {
	switch strategy {
	case RootMinID:
		return 0, nil
	case RootMaxDegree:
		best, bestDeg := 0, -1
		for sw := 0; sw < net.NumSwitches; sw++ {
			if d := len(net.SwitchOut(topology.NodeID(sw))); d > bestDeg {
				best, bestDeg = sw, d
			}
		}
		return topology.NodeID(best), nil
	case RootCenter:
		return net.Center(), nil
	}
	return 0, fmt.Errorf("updown: unknown root strategy %v", strategy)
}

// buildIntervals numbers the spanning tree's switches in preorder: a
// reverse pass over the BFS order (children after parents) sums subtree
// sizes into end, then a forward pass places each switch's range inside its
// parent's. During the forward pass end[p] of an already placed switch is
// the next free number in its range; once all of p's children are placed it
// has advanced to the end of that range.
func (l *Labeling) buildIntervals() {
	for _, v := range l.queue {
		l.end[v] = 1
	}
	for i := len(l.queue) - 1; i > 0; i-- {
		v := l.queue[i]
		l.end[l.Parent[v]] += l.end[v]
	}
	for _, v := range l.queue {
		size := l.end[v]
		l.pre[v] = 0
		if p := l.Parent[v]; p >= 0 {
			l.pre[v] = l.end[p]
			l.end[p] += size
		}
		l.end[v] = l.pre[v] + 1
	}
}

// ExtendedDescendantRows fills rows with the extended-descendant relation
// over switches: bit w of row u (words rows[u·W : (u+1)·W], W = ⌈S/64⌉) is
// set when switch u is an extended ancestor of switch w. rows needs S·W
// words and order S entries of scratch; both belong to the caller, so the
// call allocates nothing. Each row is the recurrence
//
//	row(u) = subtree(u) ∪ ⋃ row(w) over the live down-cross channels u→w,
//
// evaluated in descending (level, id) order: a down-cross channel strictly
// ascends that order, so every row it reads is complete.
func (l *Labeling) ExtendedDescendantRows(rows []uint64, order []int32) {
	net := l.Net
	s := net.NumSwitches
	nw := (s + 63) / 64
	// Subtrees first: with order holding the switch in each preorder slot,
	// row u's subtree is order[pre[u]:end[u]].
	for u := 0; u < s; u++ {
		order[l.pre[u]] = int32(u)
	}
	for u := 0; u < s; u++ {
		row := rows[u*nw : (u+1)*nw]
		clear(row)
		for _, w := range order[l.pre[u]:l.end[u]] {
			row[w>>6] |= 1 << uint(w&63)
		}
	}
	// The BFS order is sorted by level; sorting each level's run by ID
	// gives ascending (level, id).
	copy(order, l.queue)
	for i := 0; i < s; {
		j := i + 1
		for j < s && l.Level[order[j]] == l.Level[order[i]] {
			j++
		}
		slices.Sort(order[i:j])
		i = j
	}
	for i := s - 1; i >= 0; i-- {
		u := order[i]
		row := rows[int(u)*nw : (int(u)+1)*nw]
		for _, c := range net.Out(topology.NodeID(u)) {
			if l.ClassOf[c] != DownCross || l.Down.Test(int(c)) {
				continue
			}
			w := int(net.Chan(c).Dst)
			for k, x := range rows[w*nw : (w+1)*nw] {
				row[k] |= x
			}
		}
	}
}

// IsDown reports whether channel c is failed under this labeling's mask.
func (l *Labeling) IsDown(c topology.ChannelID) bool {
	return l.Down != nil && l.Down.Test(int(c))
}

// DownChannels exposes the failed-channel mask (never nil after Relabel).
// Shared; do not mutate.
func (l *Labeling) DownChannels() *bitset.Set { return l.Down }

// Children returns the down-tree channels from node v to its tree children,
// in ascending channel ID; a processor has none. Shared; do not mutate.
func (l *Labeling) Children(v topology.NodeID) []topology.ChannelID {
	if !l.Net.IsSwitch(v) {
		return nil
	}
	return l.childChans[l.childOff[v]:l.childOff[v+1]]
}

// IsAncestor reports whether u is a (reflexive) tree ancestor of v: there is
// a path of zero or more down-tree channels from u to v. Either node may be
// a processor.
func (l *Labeling) IsAncestor(u, v topology.NodeID) bool {
	if u == v {
		return true
	}
	if !l.Net.IsSwitch(u) {
		return false
	}
	w := l.Net.SwitchOf(v)
	return l.pre[u] <= l.pre[w] && l.pre[w] < l.end[u]
}

// IsExtendedAncestor reports whether u is a (reflexive) extended ancestor of
// v: a path of zero or more down-cross channels followed by zero or more
// down-tree channels leads from u to v. Either node may be a processor. It
// walks the live down-cross channels from u and stops at the first switch
// that is a tree ancestor of v; a switch deeper than v's is not followed,
// since down-cross channels never lead to a shallower level. The walk
// allocates its visited set: it answers one query, for the reference router
// and the checkers; the table compiler reads ExtendedDescendantRows instead.
func (l *Labeling) IsExtendedAncestor(u, v topology.NodeID) bool {
	if u == v {
		return true
	}
	net := l.Net
	if !net.IsSwitch(u) {
		return false
	}
	target := net.SwitchOf(v)
	seen := bitset.New(net.NumSwitches)
	seen.Set(int(u))
	stack := []topology.NodeID{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l.IsAncestor(x, target) {
			return true
		}
		for _, c := range net.Out(x) {
			if l.ClassOf[c] != DownCross || l.Down.Test(int(c)) {
				continue
			}
			w := net.Chan(c).Dst
			if !seen.Test(int(w)) && l.Level[w] <= l.Level[target] {
				seen.Set(int(w))
				stack = append(stack, w)
			}
		}
	}
	return false
}

// LCA returns the least (deepest) common tree ancestor of a and b.
func (l *Labeling) LCA(a, b topology.NodeID) topology.NodeID {
	for l.Level[a] > l.Level[b] {
		a = l.Parent[a]
	}
	for l.Level[b] > l.Level[a] {
		b = l.Parent[b]
	}
	for a != b {
		a, b = l.Parent[a], l.Parent[b]
	}
	return a
}

// LCAOfSet returns the deepest common tree ancestor of all given nodes. For a
// single processor destination this is the processor itself; callers that
// need a switch should take SwitchOf/Parent as appropriate. It panics on an
// empty slice.
func (l *Labeling) LCAOfSet(nodes []topology.NodeID) topology.NodeID {
	if len(nodes) == 0 {
		panic("updown: LCAOfSet of empty set")
	}
	lca := nodes[0]
	for _, v := range nodes[1:] {
		lca = l.LCA(lca, v)
	}
	return lca
}

// LCASwitch returns the LCA of the destination set as a switch: if the LCA
// is a processor (single-destination case), its attached switch is returned.
func (l *Labeling) LCASwitch(nodes []topology.NodeID) topology.NodeID {
	lca := l.LCAOfSet(nodes)
	if l.Net.IsProcessor(lca) {
		return l.Net.SwitchOf(lca)
	}
	return lca
}

// Depth returns the tree depth (level) of node v.
func (l *Labeling) Depth(v topology.NodeID) int32 { return l.Level[v] }

// Verify checks structural invariants of the labeling; it is used by tests
// and cmd/deadlockcheck:
//
//  1. every channel has exactly one class;
//  2. the up sub-network is acyclic;
//  3. the combined down sub-network (down-tree ∪ down-cross) is acyclic;
//  4. down-tree channels form the spanning tree (n-1 switch tree channels
//     plus one per processor);
//  5. the preorder intervals agree with Parent: the root's is [0, S), and
//     each switch's nests in its parent's, disjoint from its siblings', with
//     the sizes adding up;
//  6. the tree order numbers the processors: the ranks are a permutation of
//     [0, P), ProcAt inverts Rank, and processor p's rank lies in switch
//     u's ProcRange exactly when u is a tree ancestor of p.
func (l *Labeling) Verify() error {
	net := l.Net
	// (2) and (3): topological order by (level, id) with direction checks.
	for i := range net.Channels {
		ch := &net.Channels[i]
		ls, ld := l.Level[ch.Src], l.Level[ch.Dst]
		switch l.ClassOf[i] {
		case Up:
			if ls < ld || (ls == ld && ch.Src < ch.Dst) {
				return fmt.Errorf("updown: up channel %d (%d->%d) does not decrease (level,id)", i, ch.Src, ch.Dst)
			}
		case DownTree, DownCross:
			if ls > ld || (ls == ld && ch.Src > ch.Dst) {
				return fmt.Errorf("updown: down channel %d (%d->%d) does not increase (level,id)", i, ch.Src, ch.Dst)
			}
		default:
			return fmt.Errorf("updown: channel %d has invalid class", i)
		}
	}
	// (4) tree structure.
	treeCount := 0
	for i := range net.Channels {
		if l.ClassOf[i] != DownTree {
			continue
		}
		ch := &net.Channels[i]
		if l.Parent[ch.Dst] == ch.Src {
			treeCount++
		}
	}
	want := net.NumSwitches - 1 + net.NumProcs
	if treeCount != want {
		return fmt.Errorf("updown: %d tree-parent channels, want %d", treeCount, want)
	}
	// (5) Walking the switches in preorder, each child's interval must
	// start where its previous sibling's ended (or just after its parent's
	// own number), and each switch's must end where its last child's did.
	s := net.NumSwitches
	byPre := make([]int32, s)
	for i := range byPre {
		byPre[i] = -1
	}
	for v := 0; v < s; v++ {
		lo, hi := l.pre[v], l.end[v]
		if lo < 0 || lo >= hi || hi > int32(s) || byPre[lo] >= 0 {
			return fmt.Errorf("updown: switch %d: interval [%d,%d) is out of range or shares its start", v, lo, hi)
		}
		byPre[lo] = int32(v)
	}
	if l.pre[l.Root] != 0 || l.end[l.Root] != int32(s) {
		return fmt.Errorf("updown: root %d: interval [%d,%d), want [0,%d)", l.Root, l.pre[l.Root], l.end[l.Root], s)
	}
	// next[u] is where u's next child must start (-1 until u is reached).
	next := make([]int32, s)
	for i := range next {
		next[i] = -1
	}
	for _, v := range byPre {
		next[v] = l.pre[v] + 1
		if topology.NodeID(v) == l.Root {
			continue
		}
		p := l.Parent[v]
		if !net.IsSwitch(p) || l.pre[v] != next[p] {
			return fmt.Errorf("updown: switch %d: interval [%d,%d) does not follow its siblings inside parent %d", v, l.pre[v], l.end[v], p)
		}
		next[p] = l.end[v]
	}
	for v := 0; v < s; v++ {
		if next[v] != l.end[v] {
			return fmt.Errorf("updown: switch %d: children's intervals end at %d, its own at %d", v, next[v], l.end[v])
		}
	}
	// (6) The tree order against Rank/ProcAt and interval ancestry.
	for i, r := range l.rank {
		if p := topology.NodeID(s + i); r < 0 || int(r) >= net.NumProcs || l.proc[r] != p {
			return fmt.Errorf("updown: processor %d: rank %d is out of range or not inverted by ProcAt", p, r)
		}
	}
	for u := 0; u < s; u++ {
		lo, hi := l.ProcRange(topology.NodeID(u))
		for i, r := range l.rank {
			p := topology.NodeID(s + i)
			if l.IsAncestor(topology.NodeID(u), p) != (lo <= int(r) && int(r) < hi) {
				return fmt.Errorf("updown: switch %d: processor range [%d,%d) disagrees with the tree intervals at processor %d (rank %d)", u, lo, hi, p, r)
			}
		}
	}
	return nil
}
