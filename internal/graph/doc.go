// Package graph implements the undirected-graph substrate of the topology
// package: the builder's link checks, connectivity test and sorted edge
// order, and the on-demand switch graph a Network returns for its cold
// readers (BFS, center, diameter, DOT). A built Network holds no Graph.
//
// Vertices are dense integers [0, N). Self-loops and parallel edges are
// rejected: the paper's network model is a simple graph of switches.
package graph
