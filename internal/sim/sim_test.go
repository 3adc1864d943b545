package sim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/updown"
)

func fig1Sim(t *testing.T, cfg Config) (*Simulator, *core.Router) {
	t.Helper()
	net, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.NewWithRoot(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRouter(lab)
	s, err := New(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

const idleCap = int64(1e12)

func TestSingleUnicastMatchesClosedForm(t *testing.T) {
	s, r := fig1Sim(t, DefaultConfig())
	w, err := s.Submit(0, 6, []topology.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	want, err := r.ZeroLoadLatency(core.PaperParams(), 6, []topology.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	if w.Latency() != want {
		t.Fatalf("simulated latency %d want closed-form %d", w.Latency(), want)
	}
	if !w.Completed() {
		t.Fatal("worm not completed")
	}
}

func TestPaperExampleMulticastMatchesClosedForm(t *testing.T) {
	s, r := fig1Sim(t, DefaultConfig())
	dests := []topology.NodeID{7, 8, 9, 10}
	w, err := s.Submit(0, 6, dests)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	want, err := r.ZeroLoadLatency(core.PaperParams(), 6, dests)
	if err != nil {
		t.Fatal(err)
	}
	if w.Latency() != want {
		t.Fatalf("simulated latency %d want closed-form %d", w.Latency(), want)
	}
	// Every destination got a tail arrival stamp.
	for i, at := range w.ArrivalNs {
		if at == 0 {
			t.Fatalf("dest %d has no arrival time", w.Dests[i])
		}
	}
}

func TestZeroLoadNoBubbles(t *testing.T) {
	// Under zero contention every branch flows at channel rate, so the
	// asynchronous replication never needs bubble flits.
	s, _ := fig1Sim(t, DefaultConfig())
	if _, err := s.Submit(0, 6, []topology.NodeID{7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	if b := s.Counters().BubbleFlitHops; b != 0 {
		t.Fatalf("zero-load multicast generated %d bubble hops", b)
	}
}

func TestPayloadConservation(t *testing.T) {
	// Each of the 4 destinations must receive exactly Flits payload flits.
	cfg := DefaultConfig()
	cfg.Params.MessageFlits = 16
	s, _ := fig1Sim(t, cfg)
	dests := []topology.NodeID{7, 8, 9, 10}
	if _, err := s.Submit(0, 6, dests); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	// Payload hops = flits * total channels traversed. The tree from LCA 3
	// covers 6 channels; phase 1 is 3 channels (6->1->2->3); every payload
	// flit crosses each exactly once.
	wantHops := uint64(16 * (3 + 6))
	if got := s.Counters().PayloadFlitHops; got != wantHops {
		t.Fatalf("payload flit hops %d want %d", got, wantHops)
	}
}

func TestLatencyIncludesSourceQueueing(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	// Two messages from the same source: the second serializes behind the
	// first (startup + injection of 128 flits).
	w1, err := s.Submit(0, 6, []topology.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.Submit(0, 6, []topology.NodeID{10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	if w2.InjectStartNs <= w1.InjectStartNs {
		t.Fatal("second worm did not serialize behind the first")
	}
	if w2.Latency() <= w1.Latency() {
		t.Fatalf("queued worm latency %d should exceed first %d", w2.Latency(), w1.Latency())
	}
}

func TestContentionSerializesOnSharedChannel(t *testing.T) {
	// Two multicasts from different sources to the same destination must
	// serialize on the consumption channel; both must still complete.
	s, _ := fig1Sim(t, DefaultConfig())
	w1, err := s.Submit(0, 6, []topology.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.Submit(0, 10, []topology.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	if !w1.Completed() || !w2.Completed() {
		t.Fatal("not all worms completed under contention")
	}
	// Tail arrivals at the shared destination must be at least a full
	// message apart (the channel carries 128 flits of one worm first).
	d1, d2 := w1.DoneNs, w2.DoneNs
	if d1 > d2 {
		d1, d2 = d2, d1
	}
	minGap := int64(127 * 10) // (flits-1) * propagation on the last channel
	if d2-d1 < minGap {
		t.Fatalf("deliveries only %d ns apart; channel sharing is broken", d2-d1)
	}
}

func TestBubblesAppearUnderContention(t *testing.T) {
	// Force a multicast branch to block: keep the consumption channel of
	// proc 7 busy with a long unicast while a multicast wants procs 7 and
	// 10. The branch to 10 must keep advancing via bubbles.
	cfg := DefaultConfig()
	cfg.Params.MessageFlits = 256
	s, _ := fig1Sim(t, cfg)
	if _, err := s.Submit(0, 8, []topology.NodeID{7}); err != nil { // 8 is on switch 4 too
		t.Fatal(err)
	}
	// The multicast starts slightly later so the unicast holds (4,7) first.
	wm, err := s.Submit(2000, 6, []topology.NodeID{7, 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	if !wm.Completed() {
		t.Fatal("multicast incomplete")
	}
	if s.Counters().BubbleFlitHops == 0 {
		t.Fatal("expected bubble flits under branch contention")
	}
}

func TestManyRandomMessagesAllComplete(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	var worms []*Worm
	// A burst of overlapping unicasts and multicasts between all procs.
	targets := [][]topology.NodeID{
		{7}, {8}, {9}, {10}, {6},
		{7, 8}, {9, 10}, {6, 7, 8, 9, 10},
	}
	srcs := []topology.NodeID{6, 7, 8, 9, 10}
	id := 0
	for round := 0; round < 6; round++ {
		for _, src := range srcs {
			dst := targets[id%len(targets)]
			// Skip self-only destinations.
			if len(dst) == 1 && dst[0] == src {
				continue
			}
			var dests []topology.NodeID
			for _, d := range dst {
				if d != src {
					dests = append(dests, d)
				}
			}
			if len(dests) == 0 {
				continue
			}
			w, err := s.Submit(int64(id)*500, src, dests)
			if err != nil {
				t.Fatal(err)
			}
			worms = append(worms, w)
			id++
		}
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	for _, w := range worms {
		if !w.Completed() {
			t.Fatalf("worm %d incomplete", w.ID)
		}
		if w.Latency() < core.PaperParams().StartupNs {
			t.Fatalf("worm %d latency %d below startup", w.ID, w.Latency())
		}
	}
	if s.WaitCycle() != nil {
		t.Fatal("wait cycle after completion")
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	if _, err := s.Submit(0, 3, []topology.NodeID{7}); err == nil {
		t.Fatal("switch source accepted")
	}
	if _, err := s.Submit(0, 6, nil); err == nil {
		t.Fatal("empty dests accepted")
	}
	if _, err := s.Submit(0, 6, []topology.NodeID{3}); err == nil {
		t.Fatal("switch dest accepted")
	}
}

func TestBadConfigRejected(t *testing.T) {
	net, _ := topology.Figure1()
	lab, _ := updown.NewWithRoot(net, 0)
	r := core.NewRouter(lab)
	cfg := DefaultConfig()
	cfg.Params.MessageFlits = 1
	if _, err := New(r, cfg); err == nil {
		t.Fatal("1-flit config accepted")
	}
}

func TestRunUntilIdleTimeCap(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	if _, err := s.Submit(0, 6, []topology.NodeID{7}); err != nil {
		t.Fatal(err)
	}
	err := s.RunUntilIdle(100) // far less than startup
	if err == nil || !strings.Contains(err.Error(), "outstanding") {
		t.Fatalf("expected time-cap error, got %v", err)
	}
}

func TestLargerInputBuffersStillCorrect(t *testing.T) {
	for _, buf := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig()
		cfg.InputBufFlits = buf
		s, r := fig1Sim(t, cfg)
		dests := []topology.NodeID{7, 8, 9, 10}
		w, err := s.Submit(0, 6, dests)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntilIdle(idleCap); err != nil {
			t.Fatalf("buf=%d: %v", buf, err)
		}
		// Zero-load latency is buffer-size independent (pipelining is
		// governed by channel rate).
		want, _ := r.ZeroLoadLatency(core.PaperParams(), 6, dests)
		if w.Latency() != want {
			t.Fatalf("buf=%d: latency %d want %d", buf, w.Latency(), want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s, _ := fig1Sim(t, DefaultConfig())
		var ws []*Worm
		for i, src := range []topology.NodeID{6, 7, 8, 9, 10} {
			dests := []topology.NodeID{}
			for _, d := range []topology.NodeID{6, 7, 8, 9, 10} {
				if d != src {
					dests = append(dests, d)
				}
			}
			w, err := s.Submit(int64(i)*100, src, dests)
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, w)
		}
		if err := s.RunUntilIdle(idleCap); err != nil {
			t.Fatal(err)
		}
		var lats []int64
		for _, w := range ws {
			lats = append(lats, w.Latency())
		}
		return lats
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic: %v vs %v", a, b)
		}
	}
}

func TestTraceLogging(t *testing.T) {
	cfg := DefaultConfig()
	var lines []string
	logf := func(format string, args ...any) {
		lines = append(lines, format)
	}
	cfg.Logf = &logf
	s, _ := fig1Sim(t, cfg)
	if _, err := s.Submit(0, 6, []topology.NodeID{7}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no trace output")
	}
}

func TestCountersPlausible(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	if _, err := s.Submit(0, 6, []topology.NodeID{7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.WormsSubmitted != 1 || c.WormsCompleted != 1 {
		t.Fatalf("counters %+v", c)
	}
	if c.Events == 0 || c.PayloadFlitHops == 0 {
		t.Fatalf("counters %+v", c)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding %d", s.Outstanding())
	}
}

func TestAtClampsPastTimes(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	fired := false
	s.At(-100, func() { fired = true })
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("past-scheduled call never fired")
	}
}

func TestOnDeliveredAndOnCompleteHooks(t *testing.T) {
	s, _ := fig1Sim(t, DefaultConfig())
	w, err := s.Submit(0, 6, []topology.NodeID{7, 10})
	if err != nil {
		t.Fatal(err)
	}
	var delivered []topology.NodeID
	completed := false
	w.OnDelivered = func(_ *Worm, d topology.NodeID, _ int64) { delivered = append(delivered, d) }
	w.OnComplete = func(_ *Worm, _ int64) { completed = true }
	if err := s.RunUntilIdle(idleCap); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 2 || !completed {
		t.Fatalf("hooks: delivered=%v completed=%v", delivered, completed)
	}
}
