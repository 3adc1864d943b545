// Package viz renders the reproduction's visual artifacts, all of them
// byte-deterministic for identical input:
//
//   - Chart: ASCII line charts so the CLI can show regenerated figures as
//     plots (like the paper's), not only as tables;
//   - CurveSVG: SVG line charts with axes, error bars and legends — the
//     campaign engine's plot renderer, whose bit-identical-replay
//     guarantee depends on this package never drifting for equal inputs
//     (pinned by a golden test);
//   - NetworkSVG: the paper's Figure-1 visual language for
//     coordinate-bearing topologies (lattices, meshes, fat-trees):
//     switches as squares, processors as circles, spanning-tree channels
//     solid, cross channels dashed, root highlighted;
//   - NetworkDOT: the switch graph in Graphviz DOT, for any topology.
package viz
