package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestStructuredTraceMilestones counts the Logf milestones of the Figure 1
// multicast 6 → {7, 8, 9, 10}: one startup, a routing decision and an
// acquisition at each of switches 1–5 (three in the distribution phase, at
// the LCA 3 and at 4 and 5), and one tail delivery per destination, in
// non-decreasing time.
func TestStructuredTraceMilestones(t *testing.T) {
	cfg := DefaultConfig()
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	cfg.Logf = &logf
	s, _ := fig1Sim(t, cfg)
	w, err := s.Submit(0, 6, []topology.NodeID{7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	if !w.Completed() {
		t.Fatal("multicast did not complete")
	}
	count := func(substrs ...string) int {
		n := 0
		for _, l := range lines {
			all := true
			for _, sub := range substrs {
				all = all && strings.Contains(l, sub)
			}
			if all {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		substrs []string
		want    int
	}{
		{[]string{"startup done"}, 1},
		{[]string{"header at switch"}, 5},
		{[]string{"header at switch", "dist=true"}, 3},
		{[]string{"acquired", "at switch"}, 5},
		{[]string{"tail delivered"}, 4},
		{[]string{"pruned"}, 0},
	} {
		if got := count(c.substrs...); got != c.want {
			t.Errorf("%d lines contain %q, want %d:\n%s", got, c.substrs, c.want, strings.Join(lines, "\n"))
		}
	}
	prev := int64(-1)
	for _, l := range lines {
		var at int64
		if _, err := fmt.Sscanf(l, "t=%d ", &at); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if at < prev {
			t.Fatalf("trace time goes back at %q", l)
		}
		prev = at
	}
}

// TestTracePrunedEvents: a pruning multicast whose branch to 7 is held by a
// long blocker worm gives up on 7 and records it in PrunedDests.
func TestTracePrunedEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Params.MessageFlits = 256
	s, _ := fig1Sim(t, cfg)
	// The blocker holds (4,7).
	if _, err := s.Submit(0, 8, []topology.NodeID{7}); err != nil {
		t.Fatal(err)
	}
	w, err := s.Submit(500, 6, []topology.NodeID{7, 10})
	if err != nil {
		t.Fatal(err)
	}
	w.Prune = true
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	if len(w.PrunedDests) == 0 {
		t.Fatal("no destination pruned")
	}
}
