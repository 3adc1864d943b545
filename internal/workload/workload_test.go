package workload

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

func testRouter(t testing.TB, switches int, seed uint64) *core.Router {
	t.Helper()
	net, err := topology.RandomLattice(topology.DefaultLattice(switches, seed))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewRouter(lab)
}

func smallCfg() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Params.MessageFlits = 32
	return cfg
}

func newTestRunner(t testing.TB, switches int) *Runner {
	t.Helper()
	r, err := NewRunner(testRouter(t, switches, 7), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// completionChecks verifies every worm of the last trial completed.
func completionChecks(t *testing.T, r *Runner, wantMin int) {
	t.Helper()
	worms := r.Worms()
	if len(worms) < wantMin {
		t.Fatalf("%d worms, want >= %d", len(worms), wantMin)
	}
	for _, w := range worms {
		if !w.Completed() {
			t.Fatalf("worm %d incomplete", w.ID)
		}
	}
}

func TestEveryRegisteredScenarioRuns(t *testing.T) {
	r := newTestRunner(t, 16)
	// The replay scenario needs a trace to replay: capture one from a
	// small mixed run on the same network.
	r.CaptureTrace(true)
	if err := r.Trial(Mixed{RatePerProcPerUs: 0.01, Messages: 20}, 5); err != nil {
		t.Fatal(err)
	}
	traceFile := r.Trace().Format()
	r.CaptureTrace(false)
	for _, sc := range Scenarios() {
		w := sc.New(Params{Messages: 60, MulticastDests: 4, RatePerProcPerUs: 0.01, Trace: traceFile})
		if err := r.Trial(w, 42); err != nil {
			t.Fatalf("scenario %s: %v", sc.Name, err)
		}
		completionChecks(t, r, 1)
		if w.Name() == "" {
			t.Fatalf("scenario %s workload has empty name", sc.Name)
		}
	}
	if len(Scenarios()) < 7 {
		t.Fatalf("only %d scenarios registered", len(Scenarios()))
	}
}

// TestScenarioFieldsReachFromParams: every exported field of every
// registered scenario's workload, walked through Faulty.Inner, changes when
// some Params field is set to a value no scenario takes by default. So each
// scenario is a function of Params, and no generator keeps a knob that only
// Go code can set.
func TestScenarioFieldsReachFromParams(t *testing.T) {
	trace := func(dest int) string { return fmt.Sprintf("trace 1\nprocs 4\nmsg 0 0 %d\n", dest) }
	base := Params{Trace: trace(1)}
	strs := map[string]string{
		"Topology": "torus:4x4", "Routing": "misroute", "Root": "center",
		"Trace": trace(2), "FaultScript": "10us down 0-1", "FaultProfile": "regional",
	}
	pt := reflect.TypeOf(base)
	perturbed := make([]Params, pt.NumField())
	for i := range perturbed {
		p := base
		f, name := reflect.ValueOf(&p).Elem().Field(i), pt.Field(i).Name
		switch f.Kind() {
		case reflect.String:
			v, ok := strs[name]
			if !ok {
				t.Fatalf("Params.%s: no non-default value chosen", name)
			}
			f.SetString(v)
		case reflect.Int:
			f.SetInt(7)
		case reflect.Uint64:
			f.SetUint(7)
		case reflect.Float64:
			f.SetFloat(0.37)
		default:
			t.Fatalf("Params.%s: unhandled kind %s", name, f.Kind())
		}
		perturbed[i] = p
	}
	// leaves flattens a workload's exported fields, descending into
	// interface-typed fields (Faulty.Inner).
	var leaves func(prefix string, v reflect.Value, out map[string]any)
	leaves = func(prefix string, v reflect.Value, out map[string]any) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			key := prefix + v.Type().Name() + "." + f.Name
			if f.Type.Kind() == reflect.Interface {
				leaves(key+" → ", v.Field(i).Elem(), out)
				continue
			}
			out[key] = v.Field(i).Interface()
		}
	}
	total := 0
	for _, sc := range Scenarios() {
		b := sc.New(base)
		want := map[string]any{}
		leaves("", reflect.ValueOf(b), want)
		reached := map[string]bool{}
		for i, p := range perturbed {
			w := sc.New(p)
			if reflect.TypeOf(w) != reflect.TypeOf(b) {
				t.Fatalf("%s: Params.%s turns a %T into a %T", sc.Name, pt.Field(i).Name, b, w)
			}
			got := map[string]any{}
			leaves("", reflect.ValueOf(w), got)
			for k, v := range want {
				if !reflect.DeepEqual(got[k], v) {
					reached[k] = true
				}
			}
		}
		for k := range want {
			if !reached[k] {
				t.Errorf("%s: %s is set by no Params field", sc.Name, k)
			}
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("no workload fields walked")
	}
	t.Logf("walked %d workload fields over %d scenarios", total, len(Scenarios()))
}

// TestClampBudget: under the cap every scenario's per-trial submission
// count stays within it, and knobs already within it are left alone. Only a
// permutation, whose round is one message per processor, exceeds a cap
// below the processor count. A replayed trace over the cap, which no knob
// can shorten, is refused.
func TestClampBudget(t *testing.T) {
	const maxMessages = 1000
	clamp := func(sc Scenario, p Params, procs, maxMessages int) Params {
		t.Helper()
		p, err := ClampBudget(sc, p, procs, maxMessages)
		if err != nil {
			t.Fatalf("%s on %d processors: %v", sc.Name, procs, err)
		}
		return p
	}
	huge := Params{Messages: 100_000, Rounds: 200, Stages: 5000, Sources: 1 << 30, Trace: "trace 1\nprocs 36\nmsg 0 0 1\n"}
	for _, sc := range Scenarios() {
		for _, procs := range []int{2, 16, 36, 128, 1000, 4096} {
			p := clamp(sc, huge, procs, maxMessages)
			want := maxMessages
			if sc.Name == "transpose" || sc.Name == "bitreverse" {
				want = max(maxMessages, procs)
			}
			if got := Budget(sc.New(p), procs); got > want {
				t.Errorf("%s on %d processors: budget %d after the clamp, want at most %d", sc.Name, procs, got, want)
			}
		}
		small := Params{Messages: 50, Rounds: 2, Stages: 3}
		if p := clamp(sc, small, 36, maxMessages); p != small {
			t.Errorf("%s: in-cap knobs rewritten to %+v", sc.Name, p)
		}
		if p := clamp(sc, huge, 36, 0); p != huge {
			t.Errorf("%s: no cap still clamped to %+v", sc.Name, p)
		}
	}
	// An omitted budget falls to the scenario default, never to the cap.
	sc, _ := Lookup("mixed")
	if p := clamp(sc, Params{}, 36, 20_000); p.Messages != 0 {
		t.Errorf("omitted budget became %d; the cap must not act as a default", p.Messages)
	}
	if p := clamp(sc, Params{}, 36, 100); p.Messages != 100 {
		t.Errorf("default budget over the cap kept %d", p.Messages)
	}
	// A trace at the cap passes; one message more is refused.
	sc, _ = Lookup("replay")
	trace := "trace 1\nprocs 36\n" + strings.Repeat("msg 0 0 1\n", 3)
	if _, err := ClampBudget(sc, Params{Trace: trace}, 36, 3); err != nil {
		t.Errorf("trace at the cap refused: %v", err)
	}
	if _, err := ClampBudget(sc, Params{Trace: trace}, 36, 2); !errors.Is(err, ErrInvalidWorkload) {
		t.Errorf("trace over the cap: %v, want an invalid-workload error", err)
	}
}

// TestScenariosRejectOneProcessor: on a network with one processor no
// message has a destination other than its source, so every registered
// scenario fails its trial with an invalid-workload error (a 400 on the
// serve wire) instead of panicking.
func TestScenariosRejectOneProcessor(t *testing.T) {
	r := newTestRunner(t, 1)
	for _, sc := range Scenarios() {
		if err := r.Trial(sc.New(Params{}), 1); !errors.Is(err, ErrInvalidWorkload) {
			t.Errorf("%s: %v, want an invalid-workload error", sc.Name, err)
		}
	}
}

func TestTrialIsDeterministic(t *testing.T) {
	r := newTestRunner(t, 16)
	w := Mixed{RatePerProcPerUs: 0.02, MulticastFraction: 0.2, MulticastDests: 4, Messages: 80}
	sig := func() []int64 {
		if err := r.Trial(w, 99); err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, worm := range r.Worms() {
			out = append(out, worm.SubmitNs, worm.DoneNs, int64(worm.Src), int64(len(worm.Dests)))
		}
		return out
	}
	a := sig()
	// Interleave a different workload to perturb arena state.
	if err := r.Trial(BroadcastStorm{Sources: 3}, 7); err != nil {
		t.Fatal(err)
	}
	b := sig()
	if len(a) != len(b) {
		t.Fatalf("trial lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMixedMessageCountAndShare(t *testing.T) {
	r := newTestRunner(t, 24)
	w := Mixed{RatePerProcPerUs: 0.02, MulticastFraction: 0.3, MulticastDests: 5, Messages: 200}
	if err := r.Trial(w, 5); err != nil {
		t.Fatal(err)
	}
	worms := r.Worms()
	if len(worms) != 200 {
		t.Fatalf("%d worms, want 200", len(worms))
	}
	multi := 0
	for _, worm := range worms {
		switch len(worm.Dests) {
		case 1:
		case 5:
			multi++
		default:
			t.Fatalf("worm with %d dests", len(worm.Dests))
		}
	}
	if multi < 20 || multi > 120 {
		t.Fatalf("multicast share %d/200 far from 30%%", multi)
	}
	// Submission times are non-decreasing.
	for i := 1; i < len(worms); i++ {
		if worms[i].SubmitNs < worms[i-1].SubmitNs {
			t.Fatal("submissions out of order")
		}
	}
}

// TestMixedRateControlsArrivals: the rate sets the arrival span, so the same
// message count arrives sooner at a higher rate.
func TestMixedRateControlsArrivals(t *testing.T) {
	r := newTestRunner(t, 16)
	last := func(rate float64) int64 {
		if err := r.Trial(Mixed{RatePerProcPerUs: rate, Messages: 300}, 31); err != nil {
			t.Fatal(err)
		}
		worms := r.Worms()
		return worms[len(worms)-1].SubmitNs
	}
	if slow, fast := last(0.005), last(0.04); fast >= slow {
		t.Fatalf("rate sweep broken: last arrival %d (fast) vs %d (slow)", fast, slow)
	}
}

// TestMixedSaturatesWithoutCollapse drives a 16-switch lattice at 20x its
// knee with a heavy multicast share: the accepted rate (messages over the
// busy span per processor, as the throughput figure measures it) falls well
// short of offered, yet stays near the low-rate point — SPAM has no
// retransmissions to thrash on.
func TestMixedSaturatesWithoutCollapse(t *testing.T) {
	r, err := NewRunner(testRouter(t, 16, 22), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	accepted := func(ri int, rate float64) float64 {
		w := Mixed{RatePerProcPerUs: rate, MulticastFraction: 0.5, MulticastDests: 8, Messages: 300}
		if err := r.Trial(w, 22^8<<24^uint64(ri)<<3^0x7f7f); err != nil {
			t.Fatal(err)
		}
		worms := r.Worms()
		first, last := worms[0].SubmitNs, int64(0)
		for _, w := range worms {
			first = min(first, w.SubmitNs)
			last = max(last, w.DoneNs)
		}
		return float64(len(worms)) / (float64(last-first) / 1000.0) / float64(r.gen.NumProcs())
	}
	low, high := accepted(0, 0.01), accepted(1, 0.2)
	if high > 0.8*0.2 {
		t.Fatalf("no saturation: accepted %.4f of offered 0.2", high)
	}
	if high < 0.8*low {
		t.Fatalf("throughput collapse: %.4f at 0.01 -> %.4f at 0.2", low, high)
	}
}

// TestPickDests pins destination sampling: k distinct processors, never the
// source.
func TestPickDests(t *testing.T) {
	r := newTestRunner(t, 16)
	g := &r.gen
	g.Rand.Seed(7)
	n := g.NumProcs()
	for trial := 0; trial < 50; trial++ {
		src := g.Rand.Intn(n)
		k := 1 + g.Rand.Intn(n-1)
		dests := g.PickDests(src, k)
		if len(dests) != k {
			t.Fatalf("got %d dests, want %d", len(dests), k)
		}
		seen := map[topology.NodeID]bool{}
		for _, d := range dests {
			if d == g.Proc(src) {
				t.Fatal("source picked as destination")
			}
			if seen[d] {
				t.Fatal("duplicate destination")
			}
			seen[d] = true
		}
	}
}

// TestPickDestsFullFanout: k = n−1 picks every processor but the source.
func TestPickDestsFullFanout(t *testing.T) {
	r := newTestRunner(t, 8)
	g := &r.gen
	g.Rand.Seed(1)
	n := g.NumProcs()
	dests := g.PickDests(0, n-1)
	if len(dests) != n-1 {
		t.Fatalf("full fan-out picked %d dests, want %d", len(dests), n-1)
	}
	seen := map[topology.NodeID]bool{g.Proc(0): true}
	for _, d := range dests {
		if seen[d] {
			t.Fatalf("destination %v repeated or is the source", d)
		}
		seen[d] = true
	}
}

// TestPickDestsPanics: asking for more than n−1 destinations panics.
func TestPickDestsPanics(t *testing.T) {
	r := newTestRunner(t, 4)
	g := &r.gen
	g.Rand.Seed(1)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized pick accepted")
		}
	}()
	g.PickDests(0, g.NumProcs())
}

func TestHotSpotConcentrates(t *testing.T) {
	r := newTestRunner(t, 16)
	w := HotSpot{RatePerProcPerUs: 0.01, HotFraction: 0.8, Messages: 150}
	if err := r.Trial(w, 11); err != nil {
		t.Fatal(err)
	}
	n := r.Sim().Counters().WormsCompleted
	hot := 0
	for _, worm := range r.Worms() {
		if len(worm.Dests) != 1 {
			t.Fatal("hotspot submitted a multicast")
		}
		if int(worm.Dests[0]) == int(worm.Src) {
			t.Fatal("self-send")
		}
		if worm.Dests[0] == topology.NodeID(16) { // processor 0
			hot++
		}
	}
	if n == 0 || hot*100/len(r.Worms()) < 50 {
		t.Fatalf("hot destination got only %d/%d messages", hot, len(r.Worms()))
	}
}

func TestPermutationsAreValid(t *testing.T) {
	r := newTestRunner(t, 25)
	for _, w := range []Workload{Transpose{Rounds: 2}, BitReverse{Rounds: 2}} {
		if err := r.Trial(w, 3); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		n := r.gen.NumProcs()
		if len(r.Worms()) != 2*n {
			t.Fatalf("%s: %d worms want %d", w.Name(), len(r.Worms()), 2*n)
		}
		for _, worm := range r.Worms() {
			if len(worm.Dests) != 1 || worm.Dests[0] == worm.Src {
				t.Fatalf("%s: bad pair %d -> %v", w.Name(), worm.Src, worm.Dests)
			}
		}
	}
}

func TestBroadcastStormFanout(t *testing.T) {
	r := newTestRunner(t, 16)
	if err := r.Trial(BroadcastStorm{Sources: 3}, 21); err != nil {
		t.Fatal(err)
	}
	worms := r.Worms()
	if len(worms) != 3 {
		t.Fatalf("%d broadcasts", len(worms))
	}
	srcs := map[topology.NodeID]bool{}
	for _, worm := range worms {
		if len(worm.Dests) != r.gen.NumProcs()-1 {
			t.Fatalf("broadcast to %d dests", len(worm.Dests))
		}
		srcs[worm.Src] = true
	}
	if len(srcs) != 3 {
		t.Fatal("duplicate storm sources")
	}
}

func TestBurstyIsBursty(t *testing.T) {
	r := newTestRunner(t, 16)
	w := Bursty{RatePerProcPerUs: 0.1, Messages: 300}
	if err := r.Trial(w, 13); err != nil {
		t.Fatal(err)
	}
	worms := r.Worms()
	if len(worms) != 300 {
		t.Fatalf("%d worms", len(worms))
	}
	// On/off structure shows as a heavy tail in inter-arrival gaps:
	// the largest gap (an idle period) dwarfs the median (within-burst).
	var gaps []int64
	for i := 1; i < len(worms); i++ {
		gaps = append(gaps, worms[i].SubmitNs-worms[i-1].SubmitNs)
	}
	var max int64
	var sum int64
	for _, g := range gaps {
		if g > max {
			max = g
		}
		sum += g
	}
	mean := sum / int64(len(gaps))
	if max < 10*mean {
		t.Fatalf("no burst structure: max gap %d vs mean %d", max, mean)
	}
}

func TestClosedLoopRespectsBudgetAndWindow(t *testing.T) {
	r := newTestRunner(t, 16)
	w := ClosedLoop{Window: 2, Messages: 100}
	if err := r.Trial(w, 17); err != nil {
		t.Fatal(err)
	}
	if len(r.Worms()) != 100 {
		t.Fatalf("%d worms, want exactly the budget", len(r.Worms()))
	}
	completionChecks(t, r, 100)
	// Closed-loop self-regulation: later submissions react to completions,
	// so submission times must extend past time zero.
	last := r.Worms()[len(r.Worms())-1]
	if last.SubmitNs == 0 {
		t.Fatal("closed loop never advanced past the initial window")
	}
}

func TestMeasureWarmupAndBatches(t *testing.T) {
	r := newTestRunner(t, 16)
	w := Mixed{RatePerProcPerUs: 0.01, MulticastFraction: 0.1, MulticastDests: 4, Messages: 120}
	st, err := Measure(r, w, MeasureOpts{Trials: 1, WarmupMessages: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// 100 measured messages -> streaming batch means with size doubling:
	// the completed-batch count lands in [10, 20) and every observation is
	// still in the moment accumulators.
	if st.N() < 10 || st.N() >= 20 {
		t.Fatalf("N=%d want [10,20) batch means", st.N())
	}
	if st.Count() != 100 {
		t.Fatalf("Count=%d want 100 observations", st.Count())
	}
	if st.Mean() < 10 {
		t.Fatalf("mean %.2f below startup latency", st.Mean())
	}
	if p50 := st.Quantile(0.5); p50 < st.Min() || p50 > st.Max() {
		t.Fatalf("p50 %.2f outside [min,max]", p50)
	}
	// Short series fall back to raw observations.
	short, err := Measure(r, Mixed{RatePerProcPerUs: 0.01, MulticastFraction: 0, Messages: 8}, MeasureOpts{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if short.N() != 8 {
		t.Fatalf("short series N=%d want 8 raw observations", short.N())
	}
}

func TestMeasureMultiTrial(t *testing.T) {
	r := newTestRunner(t, 16)
	w := Mixed{RatePerProcPerUs: 0.01, MulticastFraction: 0.1, MulticastDests: 4, Messages: 40}
	st, err := Measure(r, w, MeasureOpts{Trials: 3, WarmupMessages: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 3 trials x 30 measured messages -> streaming batch means over 90.
	if st.N() < 10 || st.N() >= 20 {
		t.Fatalf("N=%d want [10,20) batch means", st.N())
	}
	if st.Count() != 90 {
		t.Fatalf("Count=%d want 90 observations", st.Count())
	}
}

func TestGeneratorValidation(t *testing.T) {
	r := newTestRunner(t, 16)
	bad := []Workload{
		Mixed{RatePerProcPerUs: 0, Messages: 10},
		Mixed{RatePerProcPerUs: 0.01, Messages: 0},
		Mixed{RatePerProcPerUs: 0.01, Messages: 10, MulticastFraction: 2},
		Mixed{RatePerProcPerUs: 0.01, Messages: 10, MulticastFraction: 0.5, MulticastDests: 99},
		Mixed{RatePerProcPerUs: 1e9, Messages: 10}, // rate too high for slot
		HotSpot{RatePerProcPerUs: 0, Messages: 10},
		Bursty{RatePerProcPerUs: 0, Messages: 10},
		ClosedLoop{Messages: 0},
		ClosedLoop{Messages: 10, MulticastFraction: 0.5, MulticastDests: 999},
	}
	for i, w := range bad {
		if err := r.Trial(w, 1); err == nil {
			t.Fatalf("bad workload %d accepted", i)
		}
	}
}

// TestMixedValidation: every invalid Mixed config fails the Trial.
func TestMixedValidation(t *testing.T) {
	r := newTestRunner(t, 8)
	bad := []Mixed{
		{RatePerProcPerUs: 0, Messages: 10},
		{RatePerProcPerUs: 0.01, MulticastFraction: 2, Messages: 10},
		{RatePerProcPerUs: 0.01, MulticastFraction: 0.1, MulticastDests: 1000, Messages: 10},
		{RatePerProcPerUs: 0.01, Messages: 0},
		{RatePerProcPerUs: 1e9, Messages: 10}, // rate too high for slot
	}
	for i, w := range bad {
		if err := r.Trial(w, 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestOpenLoopTrialAllocFree pins the engine claim end to end: a full
// workload trial (Reset + generation + simulation) over a warm Runner
// allocates nothing.
func TestOpenLoopTrialAllocFree(t *testing.T) {
	r := newTestRunner(t, 64)
	// Box the workload into the interface once: converting a struct per
	// call would itself be the trial loop's only allocation.
	var w Workload = Mixed{RatePerProcPerUs: 0.02, MulticastFraction: 0.1, MulticastDests: 8, Messages: 150}
	trial := func() {
		if err := r.Trial(w, 33); err != nil {
			t.Fatal(err)
		}
	}
	trial()
	trial()
	if n := testing.AllocsPerRun(300, trial); n != 0 {
		t.Fatalf("open-loop trial allocated %v allocs/run, want 0", n)
	}
}

// TestClosedLoopHookErrorSurfaces: a submission failure inside a completion
// hook (here: store-and-forward multicasts exceeding the input buffers,
// drawn mid-run by the closed loop) must fail the Trial rather than
// silently truncating the sample stream.
func TestClosedLoopHookErrorSurfaces(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Params.MessageFlits = 8
	cfg.AddrsPerHeaderFlit = 1 // multicasts grow past the 8-flit buffers
	cfg.StoreAndForward = true
	r, err := NewRunner(testRouter(t, 16, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := ClosedLoop{Window: 1, MulticastFraction: 0.3, MulticastDests: 4, Messages: 60}
	sawError := false
	for seed := uint64(0); seed < 10; seed++ {
		err := r.Trial(w, seed)
		if err == nil {
			// No multicast drawn (or all before any unicast completed):
			// the budget must then be fully spent.
			if len(r.Worms()) != 60 {
				t.Fatalf("seed %d: nil error with %d/60 messages submitted", seed, len(r.Worms()))
			}
			continue
		}
		sawError = true
	}
	if !sawError {
		t.Fatal("no seed exercised the failing-submission path")
	}
}
