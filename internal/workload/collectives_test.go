package workload

import (
	"testing"
)

// TestRingAllReduceFullVolume: with no cap, every chain runs its 2(n−1)
// steps and every message completes.
func TestRingAllReduceFullVolume(t *testing.T) {
	r := newTestRunner(t, 16)
	n := 16
	if err := r.Trial(RingAllReduce{}, 1); err != nil {
		t.Fatal(err)
	}
	want := 2 * n * (n - 1)
	completionChecks(t, r, want)
	if got := len(r.Worms()); got != want {
		t.Fatalf("%d messages, want the full 2n(n-1) = %d", got, want)
	}
	// Chains really are chains: each ring step submits strictly after its
	// predecessor completed.
	if int(r.Sim().Counters().WormsCompleted) != want {
		t.Fatalf("completed %d, want %d", r.Sim().Counters().WormsCompleted, want)
	}
}

// TestRingAllReduceBudgetCap: the message cap truncates the collective.
func TestRingAllReduceBudgetCap(t *testing.T) {
	r := newTestRunner(t, 16)
	if err := r.Trial(RingAllReduce{Messages: 100}, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Worms()); got != 100 {
		t.Fatalf("%d messages, want the 100-message cap", got)
	}
	if got := Budget(RingAllReduce{Messages: 100}, 16); got != 100 {
		t.Fatalf("budget %d, want 100", got)
	}
	if got := Budget(RingAllReduce{}, 16); got != 480 {
		t.Fatalf("uncapped budget %d, want 480", got)
	}
}

// TestTreeAllReduceFullVolume: (n−1) reduce unicasts + one multicast per
// interior node, all completing, for several arities.
func TestTreeAllReduceFullVolume(t *testing.T) {
	r := newTestRunner(t, 16)
	n := 16
	for _, f := range []int{1, 2, 3, 4} {
		w := TreeAllReduce{Fanout: f}
		want := (n - 1) + (n-2+f)/f
		if got := Budget(w, n); got != want {
			t.Fatalf("fanout %d: budget %d, want %d", f, got, want)
		}
		if err := r.Trial(w, 1); err != nil {
			t.Fatalf("fanout %d: %v", f, err)
		}
		completionChecks(t, r, want)
		if got := len(r.Worms()); got != want {
			t.Fatalf("fanout %d: %d messages, want %d", f, got, want)
		}
	}
}

// TestAllToAllSchedule: full volume is n(n−1) unicasts; round r pairs i
// with (i+r) mod n.
func TestAllToAllSchedule(t *testing.T) {
	r := newTestRunner(t, 16)
	n := 16
	if err := r.Trial(AllToAll{}, 1); err != nil {
		t.Fatal(err)
	}
	want := n * (n - 1)
	completionChecks(t, r, want)
	worms := r.Worms()
	if len(worms) != want {
		t.Fatalf("%d messages, want %d", len(worms), want)
	}
	// Spot-check the rotation: message j of round r goes i -> (i+r) mod n.
	w0 := worms[0]
	if len(w0.Dests) != 1 {
		t.Fatal("all-to-all submitted a multicast")
	}
	// Budget cap truncates.
	if err := r.Trial(AllToAll{Messages: 33}, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Worms()); got != 33 {
		t.Fatalf("capped run submitted %d, want 33", got)
	}
}

// TestPipelineFlow: items flow through stage bands with exactly
// items·(S−1) messages, and each stage message submits only after its
// predecessor completes.
func TestPipelineFlow(t *testing.T) {
	r := newTestRunner(t, 16)
	w := Pipeline{Stages: 4, Messages: 60}
	if got, want := Budget(w, 16), 60; got != want {
		t.Fatalf("budget %d, want %d", got, want)
	}
	if err := r.Trial(w, 1); err != nil {
		t.Fatal(err)
	}
	completionChecks(t, r, 60)
	if got := len(r.Worms()); got != 60 {
		t.Fatalf("%d messages, want 60", got)
	}
	// Stage clamp: more stages than processors degrades to procs bands.
	if got := Budget(Pipeline{Stages: 99, Messages: 30}, 16); got != 30 {
		t.Fatalf("clamped-stages budget %d, want 30", got)
	}
}

// TestCollectivesAreDeterministic: same (workload, seed) on a fresh runner
// reproduces the same per-worm completion times.
func TestCollectivesAreDeterministic(t *testing.T) {
	for _, w := range []Workload{
		RingAllReduce{Messages: 120},
		TreeAllReduce{Fanout: 3},
		AllToAll{Messages: 120},
		Pipeline{Stages: 3, Messages: 60},
	} {
		sig := func() []int64 {
			r := newTestRunner(t, 16)
			if err := r.Trial(w, 9); err != nil {
				t.Fatalf("%s: %v", w.Name(), err)
			}
			var out []int64
			for _, worm := range r.Worms() {
				out = append(out, worm.SubmitNs, worm.DoneNs)
			}
			return out
		}
		a, b := sig(), sig()
		if len(a) == 0 {
			t.Fatalf("%s: empty trial", w.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic at %d", w.Name(), i)
			}
		}
	}
}

// TestPermutationBudgets pins the MessageBudgetFor satellite: the
// previously budget-less generators now report their exact submission
// counts, and the Faulty wrapper passes the processor-aware budget
// through.
func TestPermutationBudgets(t *testing.T) {
	cases := []struct {
		w    Workload
		want int
	}{
		{Transpose{}, 16},
		{Transpose{Rounds: 3}, 48},
		{BitReverse{}, 16},
		{BitReverse{Rounds: 2}, 32},
		{BroadcastStorm{}, 4},
		{BroadcastStorm{Sources: 99}, 16},
		{BroadcastStorm{Sources: 2}, 2},
		{Faulty{Inner: Transpose{Rounds: 2}}, 32},
		{Mixed{Messages: 7}, 7},
	}
	for _, c := range cases {
		if got := Budget(c.w, 16); got != c.want {
			t.Errorf("%s: budget %d, want %d", c.w.Name(), got, c.want)
		}
	}
	// The reported budgets match what a trial actually submits.
	r := newTestRunner(t, 16)
	for _, w := range []Workload{Transpose{Rounds: 2}, BitReverse{}, BroadcastStorm{Sources: 3}} {
		if err := r.Trial(w, 3); err != nil {
			t.Fatal(err)
		}
		if got, want := len(r.Worms()), Budget(w, 16); got != want {
			t.Errorf("%s: submitted %d, budget says %d", w.Name(), got, want)
		}
	}
}

// TestClosedLoopExactBudget: the budget is spent only on successful
// submissions (the restructured launch decrements after Submit), so a
// clean trial submits exactly its Messages budget — no more, no less.
func TestClosedLoopExactBudget(t *testing.T) {
	r := newTestRunner(t, 16)
	if err := r.Trial(ClosedLoop{Window: 2, Messages: 40}, 5); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Worms()); got != 40 {
		t.Fatalf("%d submissions, want the full 40-message budget", got)
	}
	completionChecks(t, r, 40)
}

// TestClosedLoopTrialAllocFree pins the satellite fix: the closed-loop
// resubmission path reuses one retained completion hook, so a full trial
// over a warm Runner allocates nothing — completions included. Unicast
// config: multicast trials additionally grow the router/sim distribution
// scratch (AppendDistributionOutputs, onRoute), a pre-existing amortized
// cost outside the hook contract this test pins.
func TestClosedLoopTrialAllocFree(t *testing.T) {
	r := newTestRunner(t, 64)
	var w Workload = ClosedLoop{Window: 1, Messages: 150}
	trial := func() {
		if err := r.Trial(w, 33); err != nil {
			t.Fatal(err)
		}
	}
	trial()
	trial()
	if n := testing.AllocsPerRun(300, trial); n != 0 {
		t.Fatalf("closed-loop trial allocated %v allocs/run, want 0", n)
	}
}

// TestClosedLoopHookRecoversSource: the shared hook derives the source
// from the completed worm, so per-processor chains stay on their
// processor.
func TestClosedLoopHookRecoversSource(t *testing.T) {
	r := newTestRunner(t, 16)
	if err := r.Trial(ClosedLoop{Window: 1, Messages: 64}, 5); err != nil {
		t.Fatal(err)
	}
	// With window 1 and 16 processors, each processor's chain stays on its
	// own source: count submissions per source and require all 16 active.
	perSrc := map[int64]int{}
	for _, w := range r.Worms() {
		perSrc[int64(w.Src)]++
	}
	if len(perSrc) != 16 {
		t.Fatalf("chains ran on %d sources, want 16", len(perSrc))
	}
}
