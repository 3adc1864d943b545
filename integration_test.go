package spamnet

// Cross-module integration tests: the facade, the baselines, pruning,
// partitioning and the metrics working together on one network, the way a
// downstream user would combine them.

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/deadlock"
	"repro/internal/partition"
	"repro/internal/prune"
	"repro/internal/workload"
)

func TestIntegrationAllSchemesOneNetwork(t *testing.T) {
	sys, err := NewLattice(48, WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	procs := sys.Processors()
	src := procs[3]
	dests := append([]NodeID(nil), procs[10:26]...)

	// 1. Plain SPAM multicast.
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	w, err := sess.Multicast(0, src, dests)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	spamLat := w.Latency()

	// 2. Software baselines on fresh sessions over the same System.
	var swLats []int64
	for _, scheme := range []baseline.Scheme{baseline.BinomialTree, baseline.SeparateWorms, baseline.Chain} {
		s2, err := sys.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		run, err := baseline.Start(s2.Simulator(), scheme, 0, src, dests)
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Run(); err != nil {
			t.Fatal(err)
		}
		if !run.Completed() {
			t.Fatalf("%v incomplete", scheme)
		}
		swLats = append(swLats, run.Latency())
	}
	for i, lat := range swLats {
		if lat <= spamLat {
			t.Fatalf("software scheme %d (%d ns) not slower than SPAM (%d ns)", i, lat, spamLat)
		}
	}

	// 3. Pruning multicast.
	s3, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	prun, err := prune.Send(s3.Simulator(), 0, src, dests, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Run(); err != nil {
		t.Fatal(err)
	}
	if !prun.Completed() || prun.Err != nil {
		t.Fatalf("prune run state: %v %v", prun.Completed(), prun.Err)
	}
	// Quiet network: no pruning, so identical latency to SPAM.
	if prun.Latency() != spamLat {
		t.Fatalf("quiet prune latency %d != SPAM %d", prun.Latency(), spamLat)
	}

	// 4. Partitioned multicast.
	s4, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Send(s4.Simulator(), sys.Labeling(), partition.KWayDFS, 3, 0, src, dests)
	if err != nil {
		t.Fatal(err)
	}
	if err := s4.Run(); err != nil {
		t.Fatal(err)
	}
	if !part.Completed() {
		t.Fatal("partitioned run incomplete")
	}
	if part.Latency() <= spamLat {
		t.Fatal("3-way partition cannot beat one worm at zero load")
	}

	// 5. Static deadlock evidence for the very same labeling.
	if err := deadlock.VerifyStatic(sys.Labeling()); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrationMixedTrafficWithMetrics(t *testing.T) {
	sys, err := NewLattice(32, WithSeed(88))
	if err != nil {
		t.Fatal(err)
	}
	r, err := workload.NewRunner(sys.Router(), sys.SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.MaxSimTimeNs = sys.MaxSimTimeNs()
	if err := r.Trial(workload.Mixed{
		RatePerProcPerUs:  0.01,
		MulticastFraction: 0.2,
		MulticastDests:    8,
		Messages:          150,
	}, 42); err != nil {
		t.Fatal(err)
	}
	s, worms := r.Sim(), r.Worms()
	for _, w := range worms {
		if !w.Completed() {
			t.Fatalf("worm %d incomplete", w.ID)
		}
	}
	// Metrics reflect the traffic: total payload over consumption
	// channels equals messages × flits × destinations.
	var consumed uint64
	for _, p := range sys.Processors() {
		consumed += s.NodeThroughLoad(p)
	}
	var want uint64
	for _, w := range worms {
		want += uint64(w.Flits) * uint64(len(w.Dests))
	}
	if consumed != want {
		t.Fatalf("consumed %d flits want %d", consumed, want)
	}
	// The busiest channel is plausible and the loads are sorted.
	loads := s.ChannelLoads()
	if loads[0].Payload == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestIntegrationMultipleProcsPerSwitch(t *testing.T) {
	sys, err := NewLattice(16, WithSeed(5), WithProcessorsPerSwitch(3))
	if err != nil {
		t.Fatal(err)
	}
	procs := sys.Processors()
	if len(procs) != 48 {
		t.Fatalf("%d processors", len(procs))
	}
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Multicast to two processors on the same switch plus distant ones.
	w, err := sess.Multicast(0, procs[0], procs[1:10])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Completed() {
		t.Fatal("incomplete")
	}
	want, err := sys.ZeroLoadLatency(procs[0], procs[1:10])
	if err != nil {
		t.Fatal(err)
	}
	if w.Latency() != want {
		t.Fatalf("latency %d want %d", w.Latency(), want)
	}
}
