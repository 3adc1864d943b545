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
// The ancestor relations are stored for switches only; processors have no
// relation rows. A processor's (extended) ancestors are itself plus those of
// its switch, so IsAncestor and IsExtendedAncestor still answer for any two
// nodes, while the set accessors take switches. Switch-graph distances are
// not stored: SwitchDistances computes one BFS row into caller buffers.
package updown
