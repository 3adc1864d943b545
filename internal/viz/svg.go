package viz

import (
	"fmt"
	"strings"

	"repro/internal/topology"
	"repro/internal/updown"
)

// NetworkSVG renders a lattice-placed network as an SVG image: switches as
// squares at their lattice coordinates, processors as small circles beside
// their switch, spanning-tree channels as solid lines, cross channels as
// dashed lines and the root highlighted — the same visual language as the
// paper's Figure 1. It requires the network to carry lattice coordinates
// (RandomLattice and Mesh provide them).
func NetworkSVG(net *topology.Network, lab *updown.Labeling) (string, error) {
	if net.Coords == nil {
		return "", fmt.Errorf("viz: network has no coordinates")
	}
	const cell = 60
	const margin = 40
	minX, minY := net.Coords[0][0], net.Coords[0][1]
	maxX, maxY := minX, minY
	for _, c := range net.Coords {
		if c[0] < minX {
			minX = c[0]
		}
		if c[0] > maxX {
			maxX = c[0]
		}
		if c[1] < minY {
			minY = c[1]
		}
		if c[1] > maxY {
			maxY = c[1]
		}
	}
	w := (maxX-minX)*cell + 2*margin
	h := (maxY-minY)*cell + 2*margin
	px := func(sw int) (int, int) {
		return (net.Coords[sw][0]-minX)*cell + margin,
			(net.Coords[sw][1]-minY)*cell + margin
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")

	// Edges first (under the nodes), in sorted edge order: the switch
	// pairs that lead the channel numbering. Classify by the labeling: an
	// edge is a tree edge when either direction is the child's parent
	// channel.
	for c := 0; c < 2*net.Links(); c += 2 {
		u, v := net.Channels[c].Src, net.Channels[c].Dst
		x1, y1 := px(int(u))
		x2, y2 := px(int(v))
		isTree := lab.Parent[u] == v || lab.Parent[v] == u
		if isTree {
			fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black" stroke-width="2"/>`+"\n",
				x1, y1, x2, y2)
		} else {
			fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="gray" stroke-width="1.5" stroke-dasharray="6,4"/>`+"\n",
				x1, y1, x2, y2)
		}
	}

	// Switches.
	for sw := 0; sw < net.NumSwitches; sw++ {
		x, y := px(sw)
		fill := "lightsteelblue"
		if topology.NodeID(sw) == lab.Root {
			fill = "gold"
		}
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="20" height="20" fill="%s" stroke="black"/>`+"\n",
			x-10, y-10, fill)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="10" text-anchor="middle">%d</text>`+"\n",
			x, y+4, sw)
		// Processors as small circles fanned out below the switch.
		procs := net.ProcessorsOf(topology.NodeID(sw))
		for i, p := range procs {
			cx := x - 5*(len(procs)-1) + 10*i
			cy := y + 22
			fmt.Fprintf(&sb, `<circle cx="%d" cy="%d" r="5" fill="honeydew" stroke="black"/>`+"\n", cx, cy)
			fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black" stroke-width="1"/>`+"\n",
				x, y+10, cx, cy-5)
			_ = p
		}
	}
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="12">root=%d (gold), solid=tree, dashed=cross</text>`+"\n",
		margin, h-10, lab.Root)
	sb.WriteString("</svg>\n")
	return sb.String(), nil
}
