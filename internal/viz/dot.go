package viz

import (
	"fmt"
	"strings"

	"repro/internal/topology"
)

// NetworkDOT renders the switch graph in Graphviz DOT format: one vertex per
// switch, labeled with its ID and, when the network has them, its
// coordinates, then one edge per link in the network's link order.
func NetworkDOT(net *topology.Network) string {
	var sb strings.Builder
	sb.WriteString("graph spamnet {\n")
	for sw := 0; sw < net.NumSwitches; sw++ {
		label := fmt.Sprintf("s%d", sw)
		if net.Coords != nil {
			label = fmt.Sprintf("s%d (%d,%d)", sw, net.Coords[sw][0], net.Coords[sw][1])
		}
		fmt.Fprintf(&sb, "  %d [label=%q];\n", sw, label)
	}
	for k := 0; k < net.Links(); k++ {
		u, v := net.Link(k)
		fmt.Fprintf(&sb, "  %d -- %d;\n", u, v)
	}
	sb.WriteString("}\n")
	return sb.String()
}
