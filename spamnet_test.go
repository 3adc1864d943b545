package spamnet

import (
	"strings"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := NewLattice(32, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	procs := sys.Processors()
	if len(procs) != 32 {
		t.Fatalf("%d processors", len(procs))
	}
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := sess.Multicast(0, procs[5], procs[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !msg.Completed() {
		t.Fatal("message not delivered")
	}
	want, err := sys.ZeroLoadLatency(procs[5], procs[:4])
	if err != nil {
		t.Fatal(err)
	}
	if msg.Latency() != want {
		t.Fatalf("latency %d != closed form %d", msg.Latency(), want)
	}
}

func TestFigure1System(t *testing.T) {
	sys, err := NewFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Switches()) != 6 || len(sys.Processors()) != 5 {
		t.Fatal("figure-1 shape wrong")
	}
	if sys.Root() != 0 {
		t.Fatalf("root=%d", sys.Root())
	}
}

func TestMeshSystem(t *testing.T) {
	sys, err := NewMesh(4, 4, WithRootStrategy(RootCenter))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procs := sys.Processors()
	msg, err := sess.Multicast(0, procs[0], procs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !msg.Completed() {
		t.Fatal("mesh broadcast incomplete")
	}
}

func TestOptions(t *testing.T) {
	p := PaperParams()
	p.MessageFlits = 64
	var traced []string
	sys, err := NewLattice(16,
		WithSeed(7),
		WithLatencyParams(p),
		WithInputBufferFlits(4),
		WithRootStrategy(RootMaxDegree),
		WithProcessorsPerSwitch(2),
		WithTrace(func(f string, a ...any) { traced = append(traced, f) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Processors()) != 32 {
		t.Fatalf("%d processors want 32", len(sys.Processors()))
	}
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procs := sys.Processors()
	if _, err := sess.Multicast(0, procs[0], procs[1:3]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if len(traced) == 0 {
		t.Fatal("trace option produced nothing")
	}
}

func TestSessionAtAndNow(t *testing.T) {
	sys, err := NewLattice(8, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	var seen int64 = -1
	sess.At(5000, func() { seen = sess.Now() })
	if err := sess.RunUntil(10000); err != nil {
		t.Fatal(err)
	}
	if seen != 5000 {
		t.Fatalf("At callback at %d", seen)
	}
}

func TestCountersExposed(t *testing.T) {
	sys, _ := NewLattice(8, WithSeed(2))
	sess, _ := sys.NewSession()
	procs := sys.Processors()
	if _, err := sess.Multicast(0, procs[0], procs[1:2]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if sess.Counters().WormsCompleted != 1 {
		t.Fatal("counters not wired")
	}
	if sess.Simulator() == nil {
		t.Fatal("simulator accessor nil")
	}
}

func TestBadInputsSurfaceErrors(t *testing.T) {
	if _, err := NewLattice(0); err == nil {
		t.Fatal("0-switch lattice accepted")
	}
	sys, _ := NewLattice(8, WithSeed(3))
	sess, _ := sys.NewSession()
	if _, err := sess.Multicast(0, sys.Switches()[0], sys.Processors()[:1]); err == nil {
		t.Fatal("switch source accepted")
	}
	if _, err := sess.Multicast(0, sys.Processors()[0], nil); err == nil {
		t.Fatal("empty dests accepted")
	}
	bad := PaperParams()
	bad.MessageFlits = 1
	sys2, err := NewLattice(8, WithSeed(3), WithLatencyParams(bad))
	if err != nil {
		t.Fatal(err) // system construction is fine...
	}
	if _, err := sys2.NewSession(); err == nil {
		t.Fatal("...but sessions must reject 1-flit messages")
	}
}

func TestDocExampleCompiles(t *testing.T) {
	// Keep the doc-comment example honest.
	sys, _ := NewLattice(128, WithSeed(42))
	sess, _ := sys.NewSession()
	msg, _ := sess.Multicast(0, sys.Processors()[5], sys.Processors()[:4])
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace("ok")
	if out != "ok" || msg.Latency() <= 0 {
		t.Fatal("doc example broken")
	}
}

func TestSessionResetReplaysIdentically(t *testing.T) {
	sys, err := NewLattice(48, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procs := sys.Processors()
	run := func() (int64, uint64) {
		w, err := sess.Multicast(0, procs[2], procs[5:25])
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		return w.Latency(), sess.Counters().Events
	}
	lat1, ev1 := run()
	sess.Reset()
	if sess.Now() != 0 || sess.Counters().Events != 0 {
		t.Fatal("reset did not rewind the session")
	}
	lat2, ev2 := run()
	if lat1 != lat2 || ev1 != ev2 {
		t.Fatalf("reset session diverged: latency %d vs %d, events %d vs %d", lat1, lat2, ev1, ev2)
	}
	// A fresh session must agree too.
	fresh, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	w, err := fresh.Multicast(0, procs[2], procs[5:25])
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Latency() != lat1 {
		t.Fatalf("fresh session latency %d vs reset %d", w.Latency(), lat1)
	}
}

func TestWithMaxSimTime(t *testing.T) {
	// A cap shorter than the startup latency must abort the run with the
	// worm still outstanding.
	sys, err := NewLattice(16, WithSeed(4), WithMaxSimTime(time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procs := sys.Processors()
	if _, err := sess.Multicast(0, procs[0], procs[1:2]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err == nil {
		t.Fatal("1 us horizon did not abort a 10 us-startup message")
	}
	// The horizon survives Reconfigure.
	for _, e := range switchLinks(sys.Topology()) {
		if _, err := sys.Topology().WithoutLink(e[0], e[1]); err == nil {
			sys2, err := sys.Reconfigure([][2]int{e})
			if err != nil {
				t.Fatal(err)
			}
			sess2, err := sys2.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			procs2 := sys2.Processors()
			if _, err := sess2.Multicast(0, procs2[0], procs2[1:2]); err != nil {
				t.Fatal(err)
			}
			if err := sess2.Run(); err == nil {
				t.Fatal("horizon lost across Reconfigure")
			}
			break
		}
	}
	// An ample horizon behaves as before.
	sysOK, err := NewLattice(16, WithSeed(4), WithMaxSimTime(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sessOK, err := sysOK.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	procsOK := sysOK.Processors()
	if _, err := sessOK.Multicast(0, procsOK[0], procsOK[1:2]); err != nil {
		t.Fatal(err)
	}
	if err := sessOK.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprint: the configuration fingerprint used by the serve fleet's
// worker handshake must be stable across identically configured systems and
// differ for anything that would change a trial's bits.
func TestFingerprint(t *testing.T) {
	build := func(opts ...Option) *System {
		t.Helper()
		sys, err := NewLattice(16, append([]Option{WithSeed(7)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	base := build()
	if got := build().Fingerprint(); got != base.Fingerprint() {
		t.Fatalf("identical systems disagree: %x vs %x", got, base.Fingerprint())
	}
	distinct := map[uint64]string{base.Fingerprint(): "base"}
	longer := PaperParams()
	longer.MessageFlits *= 2
	for name, sys := range map[string]*System{
		"other-seed":    build(WithSeed(8)),
		"other-flits":   build(WithLatencyParams(longer)),
		"other-horizon": build(WithMaxSimTime(time.Minute)),
		"other-buffers": build(WithInputBufferFlits(4)),
	} {
		fp := sys.Fingerprint()
		if prev, dup := distinct[fp]; dup {
			t.Fatalf("%s collides with %s: %x", name, prev, fp)
		}
		distinct[fp] = name
	}
}
