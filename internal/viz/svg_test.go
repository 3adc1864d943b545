package viz

import (
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/updown"
)

func TestNetworkSVG(t *testing.T) {
	net, err := topology.RandomLattice(topology.DefaultLattice(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootCenter)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := NetworkSVG(net, lab)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "</svg>", "gold", "stroke-dasharray", "<circle"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	// One rect per switch plus the background.
	if got := strings.Count(svg, "<rect"); got != net.NumSwitches+1 {
		t.Fatalf("%d rects want %d", got, net.NumSwitches+1)
	}
	// One circle per processor.
	if got := strings.Count(svg, "<circle"); got != net.NumProcs {
		t.Fatalf("%d circles want %d", got, net.NumProcs)
	}
}

func TestNetworkSVGMeshHasCoords(t *testing.T) {
	net, err := topology.Mesh(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := NetworkSVG(net, lab)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<circle") != 18 {
		t.Fatal("2 procs per switch not rendered")
	}
}

func TestNetworkSVGRequiresCoords(t *testing.T) {
	net, err := topology.Hypercube(3, 1) // no geometric placement
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NetworkSVG(net, lab); err == nil {
		t.Fatal("coordinate-less network accepted")
	}
}

func TestNetworkSVGTreeVsCrossCounts(t *testing.T) {
	net, err := topology.RandomLattice(topology.DefaultLattice(24, 9))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := NetworkSVG(net, lab)
	if err != nil {
		t.Fatal(err)
	}
	dashed := strings.Count(svg, "stroke-dasharray")
	// Switch links = tree (n-1) + cross; cross lines are dashed.
	wantCross := net.Links() - (net.NumSwitches - 1)
	if dashed != wantCross {
		t.Fatalf("%d dashed lines want %d cross edges", dashed, wantCross)
	}
}
