// Package topology models the switch-based networks of the paper: a set of
// switches interconnected in an arbitrary (usually irregular) topology, with
// each processor (workstation) attached to a single switch by a bidirectional
// channel. Every bidirectional channel is a pair of opposed unidirectional
// channels, which are the unit the wormhole simulator schedules.
//
// A Network is one flat CSR over those channel pairs, and it is the only
// switch graph: the Builder checks the links (range, self-loops, repeated
// pairs), the processors, the port budgets and connectivity on the CSR it
// lays out. Link(k) names link k's endpoints in ascending pair order, and
// SwitchDistances is the one breadth-first search of the switch graph,
// optionally under a failed-channel mask, into caller-owned scratch; Center
// and Diameter run one per switch.
//
// Following the paper's experimental setup, the default generator places
// switches on an integer lattice (physical proximity), connects adjacent
// lattice points (at most 4 inter-switch links per switch), gives every
// switch 8 ports and attaches exactly one processor per switch.
//
// Beyond the paper's random lattices the package provides a topology zoo
// for contrasting regular and irregular networks under the same routing:
// RandomIrregular (spanning tree + extra links), Mesh, Torus, Hypercube,
// FatTree (k-ary n-tree) and an adjacency-file loader (LoadAdjacency /
// FormatAdjacency, a byte-stable round trip). Spec/ParseSpec give every
// family a compact string form — "torus:8x8", "fattree:4x3/2",
// "file:net.adj" — shared by the campaign manifests, the serve wire format
// and the CLI -topo flags. All constructors are deterministic: equal
// parameters (and, for the random families, equal seeds) build identical
// networks.
package topology
