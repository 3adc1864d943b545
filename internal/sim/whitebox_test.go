package sim

// White-box tests for paths that healthy SPAM simulations never reach —
// precisely because Theorem 1 holds. The detectors still must work, so we
// stage broken states by hand.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestFlitKindStrings(t *testing.T) {
	cases := map[FlitKind]string{
		Header: "header", Data: "data", Tail: "tail", Bubble: "bubble",
		FlitKind(99): "invalid",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d -> %q want %q", k, k.String(), want)
		}
	}
}

func TestNowAndErrAccessors(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	if s.Now() != 0 || s.Err() != nil {
		t.Fatal("fresh simulator state wrong")
	}
	if _, err := s.Submit(0, 6, []topology.NodeID{7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10500); err != nil {
		t.Fatal(err)
	}
	if s.Now() < 10000 {
		t.Fatalf("Now=%d", s.Now())
	}
}

func TestFailIsSticky(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	s.fail("first %d", 1)
	s.fail("second %d", 2)
	if s.Err() == nil || !strings.Contains(s.Err().Error(), "first 1") {
		t.Fatalf("sticky error wrong: %v", s.Err())
	}
}

// TestWaitCycleDetectsStagedCycle hand-builds the circular wait that SPAM's
// atomic OCRQ enqueueing forbids: worm A reserves channel X and queues on Y;
// worm B reserves Y and queues on X.
func TestWaitCycleDetectsStagedCycle(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	wA := &Worm{ID: 101}
	wB := &Worm{ID: 102}
	segA := &segment{worm: wA}
	segB := &segment{worm: wB}
	x, y := &s.chans[0], &s.chans[2]
	x.reserved = segA
	x.ocrq = []*segment{segB}
	y.reserved = segB
	y.ocrq = []*segment{segA}

	edges := s.WaitEdges()
	if len(edges[101]) != 1 || edges[101][0] != 102 {
		t.Fatalf("edges %v", edges)
	}
	cycle := s.WaitCycle()
	if cycle == nil {
		t.Fatal("staged deadlock not detected")
	}
	ids := map[int64]bool{}
	for _, id := range cycle {
		ids[id] = true
	}
	if !ids[101] || !ids[102] {
		t.Fatalf("cycle %v does not contain both worms", cycle)
	}
	// The report must not depend on map iteration order.
	for i := 0; i < 100; i++ {
		if got := s.WaitCycle(); !slices.Equal(got, []int64{101, 102}) {
			t.Fatalf("call %d: cycle %v, want [101 102]", i, got)
		}
	}
}

// TestWaitCycleDeterministicAcrossCycles stages two disjoint wait cycles:
// 304 ⇄ 305, and 201 → 203 → 202 → 201. Every call must name the cycle of
// the smallest worm ID, in wait-for order, starting at that worm.
func TestWaitCycleDeterministicAcrossCycles(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	seg := map[int64]*segment{}
	for _, id := range []int64{201, 202, 203, 304, 305} {
		seg[id] = &segment{worm: &Worm{ID: id}}
	}
	// waits stages "from waits for to" on its own channel: to holds it,
	// from queues on it.
	waits := func(c int, from, to int64) {
		s.chans[c].reserved = seg[to]
		s.chans[c].ocrq = []*segment{seg[from]}
	}
	waits(0, 305, 304)
	waits(1, 304, 305)
	waits(2, 202, 201)
	waits(3, 203, 202)
	waits(4, 201, 203)
	for i := 0; i < 100; i++ {
		if got := s.WaitCycle(); !slices.Equal(got, []int64{201, 203, 202}) {
			t.Fatalf("call %d: cycle %v, want [201 203 202]", i, got)
		}
	}
}

// TestWaitEdgesQueuePredecessors: a worm waiting behind another in one OCRQ
// depends on it even without a reservation.
func TestWaitEdgesQueuePredecessors(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	wA := &Worm{ID: 201}
	wB := &Worm{ID: 202}
	s.chans[0].ocrq = []*segment{{worm: wA}, {worm: wB}}
	edges := s.WaitEdges()
	if len(edges[202]) != 1 || edges[202][0] != 201 {
		t.Fatalf("edges %v", edges)
	}
	if s.WaitCycle() != nil {
		t.Fatal("phantom cycle in a plain queue")
	}
}

// TestWatchdogHardStall: outstanding work with nothing scheduled must be
// reported as a deadlock/stall immediately.
func TestWatchdogHardStall(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	s.outstanding = 1 // staged: a worm that can never progress
	s.onWatchdog()
	if s.Err() == nil || !strings.Contains(s.Err().Error(), "hard stall") {
		t.Fatalf("hard stall not reported: %v", s.Err())
	}
}

// TestWatchdogReportsStagedCycle: the watchdog prefers naming the cycle.
func TestWatchdogReportsStagedCycle(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	s.outstanding = 1
	wA := &Worm{ID: 301}
	wB := &Worm{ID: 302}
	s.chans[0].reserved = &segment{worm: wA}
	s.chans[0].ocrq = []*segment{{worm: wB}}
	s.chans[2].reserved = &segment{worm: wB}
	s.chans[2].ocrq = []*segment{{worm: wA}}
	s.onWatchdog()
	if s.Err() == nil || !strings.Contains(s.Err().Error(), "wait cycle") {
		t.Fatalf("cycle not reported: %v", s.Err())
	}
}

// TestCheckInvariantsCatchesCreditLeak: staged corruption must be caught.
func TestCheckInvariantsCatchesCreditLeak(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	s.chans[0].credits = 5
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("credit leak undetected")
	}
}

// TestCheckInvariantsCatchesGhostReservation: a finished segment must not
// hold channels.
func TestCheckInvariantsCatchesGhostReservation(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	s.chans[0].reserved = &segment{worm: &Worm{ID: 9}, done: true}
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("ghost reservation undetected")
	}
}

// TestPruneCompletesViaAllPruned: a prune worm whose every destination gets
// cut completes through the pruning path (DoneNs set, hooks fired).
func TestPruneCompletesViaAllPruned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Params.MessageFlits = 512
	s, _ := fig1Sim(t, cfg)
	// Long blocker owns (4,7).
	if _, err := s.Submit(0, 8, []topology.NodeID{7}); err != nil {
		t.Fatal(err)
	}
	// Prune worm with the single destination 7: its only branch is
	// blocked at switch 4, so everything is pruned and the worm completes
	// with PrunedDests = [7].
	w, err := s.Submit(500, 6, []topology.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	w.Prune = true
	completed := false
	w.OnComplete = func(w *Worm, _ int64) {
		completed = true
		if len(w.PrunedDests) != 1 || w.PrunedDests[0] != 7 {
			t.Errorf("pruned dests %v", w.PrunedDests)
		}
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	if !completed || !w.Completed() {
		t.Fatal("all-pruned worm did not complete")
	}
	// A pruned worm completes while its absorbed flits are still draining
	// into the sink; flush the remaining events before checking drainage.
	if err := s.Run(idleCap); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPutOutBufDoubleOccupancyFails: the engine flags internal misuse.
func TestPutOutBufDoubleOccupancyFails(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	w := &Worm{ID: 1}
	s.putOutBuf(0, flit{w: w, kind: Data})
	s.putOutBuf(0, flit{w: w, kind: Data})
	if s.Err() == nil {
		t.Fatal("double occupancy undetected")
	}
}
