package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestGoldenPaperExampleTrace pins the exact routing milestones of the
// paper's Section-3 worked example (Figure 1, multicast 5 -> {8,9,10,11}):
// the header path 5,2,3,4 to the LCA, the two-way split at the LCA (paper
// node 4), the three-way split at paper node 6 and the single forward at
// paper node 7. Any engine change that alters timing or routing of this
// canonical example fails here first.
func TestGoldenPaperExampleTrace(t *testing.T) {
	var trace []string
	cfg := DefaultConfig()
	logf := func(f string, args ...any) {
		trace = append(trace, fmt.Sprintf(f, args...))
	}
	cfg.Logf = &logf
	s, _ := fig1Sim(t, cfg)
	if _, err := s.Submit(0, 6, []topology.NodeID{7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	golden := []string{
		"t=10000 worm 1: startup done at proc 6, requesting injection channel",
		"t=10000 worm 1: injection channel acquired at proc 6",
		"t=10050 worm 1: header at switch 1 (dist=false) requests [4]",
		"t=10050 worm 1: acquired 1 channel(s) at switch 1",
		"t=10100 worm 1: header at switch 2 (dist=false) requests [6]",
		"t=10100 worm 1: acquired 1 channel(s) at switch 2",
		"t=10150 worm 1: header at switch 3 (dist=true) requests [8 10]",
		"t=10150 worm 1: acquired 2 channel(s) at switch 3",
		"t=10200 worm 1: header at switch 4 (dist=true) requests [14 16 18]",
		"t=10200 worm 1: acquired 3 channel(s) at switch 4",
		"t=10200 worm 1: header at switch 5 (dist=true) requests [20]",
		"t=10200 worm 1: acquired 1 channel(s) at switch 5",
		"t=11480 worm 1: tail delivered at proc 7 (3 remaining)",
		"t=11480 worm 1: tail delivered at proc 8 (2 remaining)",
		"t=11480 worm 1: tail delivered at proc 9 (1 remaining)",
		"t=11480 worm 1: tail delivered at proc 10 (0 remaining)",
	}
	if len(trace) != len(golden) {
		t.Fatalf("trace has %d lines, want %d:\n%s", len(trace), len(golden), strings.Join(trace, "\n"))
	}
	for i, want := range golden {
		if trace[i] != want {
			t.Fatalf("trace line %d:\n got %q\nwant %q", i, trace[i], want)
		}
	}
}
