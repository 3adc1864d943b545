package workload

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

// specRouter builds a router from a topology spec string.
func specRouter(t testing.TB, spec string, seed uint64) *core.Router {
	t.Helper()
	sp, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	net, err := sp.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewRouter(lab)
}

// randomTrace builds a structurally valid random trace: open entries plus
// dependent entries hanging off earlier ones.
func randomTrace(r *rng.Source, procs, msgs int) *Trace {
	tr := &Trace{Procs: procs}
	for i := 0; i < msgs; i++ {
		m := TraceMsg{Parent: -1, At: int64(r.Intn(100_000)), Src: int32(r.Intn(procs))}
		if i > 0 && r.Bool(0.4) {
			m.Parent = int32(r.Intn(i))
			m.At = int64(r.Intn(5_000))
		}
		k := 1 + r.Intn(3)
		for d := 0; d < k; d++ {
			m.Dests = append(m.Dests, int32(r.Intn(procs)))
		}
		tr.Msgs = append(tr.Msgs, m)
	}
	return tr
}

// TestTraceRoundTripByteStable is the loader property test: for seeded
// random traces, Format∘Load is the identity on formatted bytes — exactly
// the adjacency loader's round-trip guarantee.
func TestTraceRoundTripByteStable(t *testing.T) {
	r := rng.New(11)
	for iter := 0; iter < 50; iter++ {
		tr := randomTrace(r, 2+r.Intn(64), 1+r.Intn(40))
		f := tr.Format()
		back, err := ParseTrace(f)
		if err != nil {
			t.Fatalf("iter %d: formatted trace does not load: %v\n%s", iter, err, f)
		}
		if got := back.Format(); got != f {
			t.Fatalf("iter %d: round trip not byte-stable:\n got %q\nwant %q", iter, got, f)
		}
	}
}

// TestTraceLoadTolerance: comments, blank lines and extra whitespace load
// to the same trace as the canonical form.
func TestTraceLoadTolerance(t *testing.T) {
	canonical := "# spamnet arrival trace: 2 messages, 4 processors\ntrace 1\nprocs 4\nmsg 10 0 1 2\ndep 0 500 1 3\n"
	messy := "\n# a comment\n  trace 1  \n\nprocs 4\n # another\n\tmsg  10  0  1 2\ndep 0 500 1 3\n\n"
	a, err := ParseTrace(canonical)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseTrace(messy)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != canonical {
		t.Fatalf("canonical form drifted:\n got %q\nwant %q", a.Format(), canonical)
	}
	if b.Format() != canonical {
		t.Fatalf("messy form loads differently:\n got %q\nwant %q", b.Format(), canonical)
	}
}

// TestTraceLoadRejects pins the loader's validation errors.
func TestTraceLoadRejects(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"empty", "", "missing its header"},
		{"bad header", "trace 2\nprocs 4\n", "expected \"trace 1\""},
		{"no procs", "trace 1\nmsg 0 0 1\n", "expected \"procs"},
		{"zero procs", "trace 1\nprocs 0\n", "bad processor count"},
		{"bad kind", "trace 1\nprocs 4\nzap 0 0 1\n", "unknown entry kind"},
		{"src range", "trace 1\nprocs 4\nmsg 0 4 1\n", "out of [0,4)"},
		{"dest range", "trace 1\nprocs 4\nmsg 0 0 9\n", "out of [0,4)"},
		{"no dests", "trace 1\nprocs 4\nmsg 0 0\n", "msg"},
		{"negative time", "trace 1\nprocs 4\nmsg -5 0 1\n", "bad submission time"},
		{"forward parent", "trace 1\nprocs 4\ndep 0 10 0 1\n", "earlier entry"},
		{"self parent", "trace 1\nprocs 4\nmsg 0 0 1\ndep 1 10 0 1\n", "earlier entry"},
	}
	for _, c := range cases {
		if _, err := ParseTrace(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// trialSignature captures everything a bit-identical replay must reproduce:
// per-worm submit/done times in submission order plus the engine counters.
type trialSignature struct {
	submits, dones []int64
	counters       sim.Counters
}

func signatureOf(r *Runner) trialSignature {
	var sig trialSignature
	for _, w := range r.Worms() {
		sig.submits = append(sig.submits, w.SubmitNs)
		sig.dones = append(sig.dones, w.DoneNs)
	}
	sig.counters = r.Sim().Counters()
	return sig
}

func sameSignature(a, b trialSignature) bool {
	if len(a.submits) != len(b.submits) || a.counters != b.counters {
		return false
	}
	for i := range a.submits {
		if a.submits[i] != b.submits[i] || a.dones[i] != b.dones[i] {
			return false
		}
	}
	return true
}

// replayWorkloadFor wraps the captured trace the way the original workload
// was wrapped: a fault scenario's replay must run under the same fault
// timeline for the injector to regenerate the identical disruption.
func replayWorkloadFor(orig Workload, tr *Trace) Workload {
	if f, ok := orig.(Faulty); ok {
		return Faulty{Inner: Replay{Trace: tr}, Spec: f.Spec, Policy: f.Policy}
	}
	return Replay{Trace: tr}
}

// TestRecordReplayExactEveryScenario is the tentpole acceptance property:
// capturing any registry scenario's submission stream and replaying it on a
// fresh runner reproduces the original trial bit-identically (every worm's
// submit/done time and every engine counter), and re-capturing the replay
// reproduces the trace file byte for byte. Runs on two topology-zoo
// families.
func TestRecordReplayExactEveryScenario(t *testing.T) {
	for _, spec := range []string{"torus:4x4", "fattree:2x3"} {
		t.Run(spec, func(t *testing.T) {
			router := specRouter(t, spec, 3)
			rec, err := NewRunner(router, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range Scenarios() {
				if sc.Name == "replay" {
					continue // the mechanism under test
				}
				w := sc.New(Params{Messages: 60, MulticastDests: 4, RatePerProcPerUs: 0.01})
				rec.CaptureTrace(true)
				if err := rec.Trial(w, 42); err != nil {
					t.Fatalf("%s: capture trial: %v", sc.Name, err)
				}
				want := signatureOf(rec)
				file := rec.Trace().Format()
				rec.CaptureTrace(false)

				tr, err := ParseTrace(file)
				if err != nil {
					t.Fatalf("%s: captured trace does not load: %v", sc.Name, err)
				}
				if len(tr.Msgs) == 0 {
					t.Fatalf("%s: captured an empty trace", sc.Name)
				}
				rw := replayWorkloadFor(w, tr)

				rep, err := NewRunner(specRouter(t, spec, 3), smallCfg())
				if err != nil {
					t.Fatal(err)
				}
				rep.CaptureTrace(true)
				if err := rep.Trial(rw, 42); err != nil {
					t.Fatalf("%s: replay trial: %v", sc.Name, err)
				}
				if got := signatureOf(rep); !sameSignature(got, want) {
					t.Fatalf("%s: replay diverged: %d/%d worms, counters %+v vs %+v",
						sc.Name, len(got.submits), len(want.submits), got.counters, want.counters)
				}
				if got := rep.Trace().Format(); got != file {
					t.Fatalf("%s: re-captured replay trace is not byte-identical", sc.Name)
				}
			}
		})
	}
}

// TestReplayValidation: replay refuses a missing trace and a processor
// mismatch.
func TestReplayValidation(t *testing.T) {
	r := newTestRunner(t, 16)
	if err := r.Trial(Replay{}, 1); err == nil {
		t.Fatal("nil trace accepted")
	}
	tr := &Trace{Procs: 4, Msgs: []TraceMsg{{Parent: -1, Src: 0, Dests: []int32{1}}}}
	if err := r.Trial(Replay{Trace: tr}, 1); err == nil || !strings.Contains(err.Error(), "processors") {
		t.Fatalf("processor mismatch not rejected: %v", err)
	}
	// The registry constructor defers parse failures to the trial.
	sc, _ := Lookup("replay")
	if err := r.Trial(sc.New(Params{Trace: "garbage"}), 1); err == nil {
		t.Fatal("garbage trace accepted")
	}
}

// TestReplayClosedLoopDeltas: a closed-loop capture must record dependent
// entries (the completion-triggered resubmissions), not collapse everything
// to absolute times — that is what carries bit-identity for feedback
// workloads. A closed loop resubmits the instant a worm completes, so its
// deltas are 0; the replay of a hand-written trace with 500 ns deltas must
// re-record them exactly.
func TestReplayClosedLoopDeltas(t *testing.T) {
	r := newTestRunner(t, 16)
	r.CaptureTrace(true)
	if err := r.Trial(ClosedLoop{Window: 1, Messages: 50}, 7); err != nil {
		t.Fatal(err)
	}
	deps := 0
	for _, m := range r.Trace().Msgs {
		if m.Parent >= 0 {
			deps++
			if m.At != 0 {
				t.Fatalf("dep delta %d, want 0: a closed loop resubmits on completion", m.At)
			}
		}
	}
	if deps == 0 {
		t.Fatal("closed-loop capture recorded no dependent entries")
	}

	const file = "# spamnet arrival trace: 5 messages, 16 processors\ntrace 1\nprocs 16\n" +
		"msg 0 0 1\nmsg 100 5 6 7\ndep 0 500 1 2\ndep 1 500 6 9\ndep 2 500 2 3 4\n"
	tr, err := ParseTrace(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Trial(Replay{Trace: tr}, 7); err != nil {
		t.Fatal(err)
	}
	if got := r.Trace().Format(); got != file {
		t.Fatalf("re-recorded replay drifted:\n got %q\nwant %q", got, file)
	}
}

// TestTraceBudget: the replay workload reports the trace size as its
// budget so serve warmup defaulting and clamps see it.
func TestTraceBudget(t *testing.T) {
	tr := &Trace{Procs: 4, Msgs: make([]TraceMsg, 17)}
	if got := Budget(Replay{Trace: tr}, 4); got != 17 {
		t.Fatalf("replay budget %d, want 17", got)
	}
	if got := Budget(Replay{}, 4); got != 0 {
		t.Fatalf("nil-trace replay budget %d, want 0", got)
	}
}
