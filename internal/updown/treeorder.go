package updown

import (
	"repro/internal/bitset"
	"repro/internal/topology"
)

// buildTreeOrder numbers the processors in tree order: switches in
// preorder, each switch's own processors (in ProcessorsOf order) before its
// children's subtrees, so the processors below any switch are one
// contiguous range of ranks. start[k] becomes the first rank of the switch
// in preorder slot k (start[S] = P): a slot's own processor count is summed
// into the slot after it, then prefix-summed.
func (l *Labeling) buildTreeOrder() {
	net := l.Net
	s := net.NumSwitches
	l.start[0] = 0
	for u := 0; u < s; u++ {
		l.start[l.pre[u]+1] = int32(len(net.ProcessorsOf(topology.NodeID(u))))
	}
	for k := 1; k <= s; k++ {
		l.start[k] += l.start[k-1]
	}
	for u := 0; u < s; u++ {
		r := l.start[l.pre[u]]
		for _, p := range net.ProcessorsOf(topology.NodeID(u)) {
			l.rank[int(p)-s] = r
			l.proc[r] = p
			r++
		}
	}
}

// Rank returns processor p's position in the tree order.
func (l *Labeling) Rank(p topology.NodeID) int { return int(l.rank[int(p)-l.Net.NumSwitches]) }

// ProcAt returns the processor at position r of the tree order.
func (l *Labeling) ProcAt(r int) topology.NodeID { return l.proc[r] }

// ProcRange returns the ranks [lo, hi) of the processors in the tree
// subtree rooted at switch u.
func (l *Labeling) ProcRange(u topology.NodeID) (lo, hi int) {
	return int(l.start[l.pre[u]]), int(l.start[l.end[u]])
}

// Interval returns switch u's preorder number and the end of its subtree's
// preorder range: switch w lies in u's subtree exactly when
// pre(u) ≤ pre(w) < end(u).
func (l *Labeling) Interval(u topology.NodeID) (pre, end int32) { return l.pre[u], l.end[u] }

// TreeSet is a set of processors keyed by tree rank: bit r stands for
// ProcAt(r) of the labeling the set was filled under. Because the
// processors below a switch are one rank range (ProcRange), counting the
// members in a subtree is one CountRange over that subtree's words. A set
// means nothing under another numbering: whoever relabels must refill it.
type TreeSet bitset.Set

// NewTreeSet returns an empty set over the network's processors.
func (l *Labeling) NewTreeSet() *TreeSet { return (*TreeSet)(bitset.New(l.Net.NumProcs)) }

func (t *TreeSet) bits() *bitset.Set { return (*bitset.Set)(t) }

// Reset empties the set.
func (t *TreeSet) Reset() { t.bits().Reset() }

// Add inserts rank r.
func (t *TreeSet) Add(r int) { t.bits().Set(r) }

// Remove deletes rank r.
func (t *TreeSet) Remove(r int) { t.bits().Clear(r) }

// Has reports whether rank r is a member.
func (t *TreeSet) Has(r int) bool { return t.bits().Test(r) }

// CountRange returns the number of members with rank in [lo, hi).
func (t *TreeSet) CountRange(lo, hi int) int { return t.bits().CountRange(lo, hi) }

// Next returns the smallest member at or after rank r, or -1.
func (t *TreeSet) Next(r int) int { return t.bits().NextSet(r) }
