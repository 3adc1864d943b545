package prune

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

func rig(t *testing.T, flits int) (*sim.Simulator, *topology.Network) {
	t.Helper()
	net, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.NewWithRoot(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Params.MessageFlits = flits
	s, err := sim.New(core.NewRouter(lab), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, net
}

func TestQuietNetworkNoPruning(t *testing.T) {
	s, _ := rig(t, 32)
	run, err := Send(s, 0, 6, []topology.NodeID{7, 8, 9, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(1e13); err != nil {
		t.Fatal(err)
	}
	if !run.Completed() {
		t.Fatal("incomplete")
	}
	if run.Rounds != 1 || run.Worms != 1 {
		t.Fatalf("quiet network pruned: rounds=%d worms=%d", run.Rounds, run.Worms)
	}
	if run.Err != nil {
		t.Fatal(run.Err)
	}
}

func TestPruningTriggersUnderContention(t *testing.T) {
	// A long unicast occupies the channel to proc 7's switch branch; the
	// pruning multicast must cut that branch and retry.
	s, _ := rig(t, 256)
	// Blocker: 8 -> 7 holds the consumption channel (4,7) for ~2.5 us.
	if _, err := s.Submit(0, 8, []topology.NodeID{7}); err != nil {
		t.Fatal(err)
	}
	run, err := Send(s, 500, 6, []topology.NodeID{7, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(1e13); err != nil {
		t.Fatal(err)
	}
	if !run.Completed() {
		t.Fatalf("incomplete: err=%v", run.Err)
	}
	if run.Rounds < 2 {
		t.Fatalf("no pruning under contention: rounds=%d", run.Rounds)
	}
	if run.Worms < 2 {
		t.Fatalf("worms=%d", run.Worms)
	}
}

func TestPrunedRetryCostsExtraStartup(t *testing.T) {
	// The retry pays a full extra startup, so a pruned run is much slower
	// than an unpruned SPAM run of the same message.
	sSpam, _ := rig(t, 256)
	if _, err := sSpam.Submit(0, 8, []topology.NodeID{7}); err != nil {
		t.Fatal(err)
	}
	wSpam, err := sSpam.Submit(500, 6, []topology.NodeID{7, 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := sSpam.RunUntilIdle(1e13); err != nil {
		t.Fatal(err)
	}

	sPrune, _ := rig(t, 256)
	if _, err := sPrune.Submit(0, 8, []topology.NodeID{7}); err != nil {
		t.Fatal(err)
	}
	run, err := Send(sPrune, 500, 6, []topology.NodeID{7, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sPrune.RunUntilIdle(1e13); err != nil {
		t.Fatal(err)
	}
	if run.Rounds < 2 {
		t.Skip("contention did not trigger pruning in this configuration")
	}
	if run.Latency() <= wSpam.Latency() {
		t.Fatalf("pruned run (%d ns) should be slower than SPAM waiting (%d ns)",
			run.Latency(), wSpam.Latency())
	}
}

func TestAllDestinationsEventuallyDelivered(t *testing.T) {
	// Heavy cross traffic: pruning multicasts among all processors; every
	// destination must still be reached (no message loss).
	s, net := rig(t, 64)
	var runs []*Run
	procs := []topology.NodeID{6, 7, 8, 9, 10}
	for i, src := range procs {
		var dests []topology.NodeID
		for _, d := range procs {
			if d != src {
				dests = append(dests, d)
			}
		}
		run, err := Send(s, int64(i)*300, src, dests, 0)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	if err := s.RunUntilIdle(1e13); err != nil {
		t.Fatal(err)
	}
	_ = net
	for i, run := range runs {
		if run.Err != nil {
			t.Fatalf("run %d: %v", i, run.Err)
		}
		if !run.Completed() {
			t.Fatalf("run %d incomplete after %d rounds", i, run.Rounds)
		}
	}
}

func TestValidation(t *testing.T) {
	s, _ := rig(t, 16)
	if _, err := Send(s, 0, 6, nil, 0); err == nil {
		t.Fatal("empty dests accepted")
	}
}

func TestOnCompleteHook(t *testing.T) {
	s, _ := rig(t, 16)
	run, err := Send(s, 0, 6, []topology.NodeID{7, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	run.OnComplete(func(r *Run) {
		if !r.Completed() {
			t.Error("hook before completion")
		}
		fired = true
	})
	if err := s.RunUntilIdle(1e13); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("completion hook never fired")
	}
	if run.Latency() <= 0 {
		t.Fatal("non-positive latency")
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	s, _ := rig(t, 256)
	// Permanent blocker stream: back-to-back long unicasts 8 -> 7.
	for i := 0; i < 40; i++ {
		if _, err := s.Submit(int64(i), 8, []topology.NodeID{7}); err != nil {
			t.Fatal(err)
		}
	}
	run, err := Send(s, 100, 6, []topology.NodeID{7, 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(1e13); err != nil {
		t.Fatal(err)
	}
	if run.Completed() && run.Rounds > 2 {
		t.Fatalf("completed with %d rounds despite cap 2", run.Rounds)
	}
	// Either it completed within the cap or the guard fired.
	if !run.Completed() && run.Err == nil {
		t.Fatal("neither completed nor errored")
	}
}

// meanContendedLatencyUs runs trials of `concurrent` multicasts to d random
// destinations, launched 150 ns apart, under pruning or SPAM waiting, and
// returns their mean completion latency in µs.
func meanContendedLatencyUs(t *testing.T, s *sim.Simulator, net *topology.Network, pruning bool, seed uint64, trials, concurrent, d int) float64 {
	t.Helper()
	r := rng.New(seed)
	proc := func(i int) topology.NodeID { return topology.NodeID(net.NumSwitches + i) }
	var sum float64
	for trial := 0; trial < trials; trial++ {
		s.Reset()
		var spam []*sim.Worm
		var pruned []*Run
		for c := 0; c < concurrent; c++ {
			srcIdx := r.Intn(net.NumProcs)
			var dests []topology.NodeID
			for _, v := range r.Choose(net.NumProcs-1, d) {
				if v >= srcIdx {
					v++
				}
				dests = append(dests, proc(v))
			}
			at := int64(c) * 150
			if pruning {
				run, err := Send(s, at, proc(srcIdx), dests, 0)
				if err != nil {
					t.Fatal(err)
				}
				pruned = append(pruned, run)
			} else {
				w, err := s.Submit(at, proc(srcIdx), dests)
				if err != nil {
					t.Fatal(err)
				}
				spam = append(spam, w)
			}
		}
		if err := s.RunUntilIdle(1e16); err != nil {
			t.Fatal(err)
		}
		for _, w := range spam {
			sum += float64(w.Latency()) / 1000
		}
		for _, run := range pruned {
			if !run.Completed() {
				t.Fatalf("pruned run incomplete: %v", run.Err)
			}
			sum += float64(run.Latency()) / 1000
		}
	}
	return sum / float64(trials*concurrent)
}

// TestPruningDegradesWithMessageLength checks the related-work claim that
// pruning is "effective only for short messages" on a 16-switch lattice
// with 4 concurrent 6-destination multicasts: from 8- to 128-flit messages
// its latency relative to SPAM waiting improves by less than a fifth (each
// retry pays a fresh startup, and long worms prune more).
func TestPruningDegradesWithMessageLength(t *testing.T) {
	net, err := topology.RandomLattice(topology.DefaultLattice(16, 77))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	ratio := map[int]float64{}
	for _, flits := range []int{8, 128} {
		cfg := sim.DefaultConfig()
		cfg.Params.MessageFlits = flits
		s, err := sim.New(core.NewRouter(lab), cfg)
		if err != nil {
			t.Fatal(err)
		}
		spam := meanContendedLatencyUs(t, s, net, false, 77^uint64(flits)<<4, 4, 4, 6)
		pruned := meanContendedLatencyUs(t, s, net, true, 77^1<<40^uint64(flits)<<4, 4, 4, 6)
		ratio[flits] = pruned / spam
	}
	if ratio[128] < 0.8*ratio[8] {
		t.Fatalf("pruning relatively better for long messages (prune/SPAM %.2f at 128 flits vs %.2f at 8)", ratio[128], ratio[8])
	}
}
