// Package updown implements the up*/down* network partition that SPAM builds
// on (Schroeder et al., Autonet), extended with the paper's distinction
// between down-tree and down-cross channels, ancestor and extended-ancestor
// relations, and tree least-common-ancestor queries.
//
// A root switch is chosen and a BFS spanning tree is computed. For every
// channel:
//
//   - tree channels directed toward the root are "up", away from the root
//     are "down tree";
//   - cross (non-tree) channels directed from a deeper level to a shallower
//     level are "up", from shallower to deeper are "down cross";
//   - cross channels between equal levels are "up" from the larger node ID
//     to the smaller, "down cross" otherwise.
//
// Processors are leaves of the spanning tree: processor→switch channels are
// up tree channels and switch→processor channels are down tree channels.
//
// A built labeling stores no switch×switch or switch×node relation, only
// flat arrays over nodes, switches and channels; child channels are one CSR
// read through Children. Tree ancestry is an interval test: Relabel numbers
// the tree's switches in preorder, so each subtree is one range [pre, end)
// and IsAncestor is two comparisons. It numbers the processors in the same
// tree order — each switch's own processors before its children's subtrees
// — so the processors below a switch are one rank range (ProcRange), and a
// destination set keyed by rank (TreeSet) answers the distribution phase's
// subtree test with one range count. A set is keyed by the numbering it was
// filled under, and a relabel renumbers: holders must refill their sets.
// Extended ancestry is derived on demand: IsExtendedAncestor walks the
// down-cross channels for one query, and ExtendedDescendantRows fills the
// whole switch relation into caller-owned words for the table compiler.
// A processor's (extended) ancestors are itself plus those of its switch,
// so both predicates answer for any two nodes. Switch-graph distances are
// not stored either: SwitchDistances computes one BFS row into caller
// buffers, and AllSwitchDistances fills the whole S×S matrix for the table
// compiler, by a BFS from 64 sources at a time.
package updown
