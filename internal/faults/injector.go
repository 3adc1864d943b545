package faults

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/updown"
)

// Policy is the source-side reaction to drained messages.
type Policy struct {
	// MaxRetries is how many times an aborted message is resubmitted from
	// its source (0 = aborted messages are lost).
	MaxRetries int
	// RetryDelayNs is the backoff before a resubmission (default: one
	// startup latency, 10 µs).
	RetryDelayNs int64
}

const defaultRetryDelayNs = 10_000

// Metrics aggregates the disruption a fault timeline caused. All counts are
// simulated-time deterministic.
type Metrics struct {
	// EventsApplied/EventsRejected count script events; an event that
	// would disconnect the live switch graph (or names a link in the
	// wrong state) is rejected, keeping the network relabelable.
	EventsApplied, EventsRejected int
	// LinkDowns/LinkUps count individual link transitions (a SwitchDown
	// can fail several links under one event).
	LinkDowns, LinkUps int
	// Swaps counts relabel+recompile table swaps.
	Swaps int
	// WormsAborted counts drained in-flight messages; WormsRetried the
	// resubmissions issued for them; RetriesExhausted retries abandoned at
	// the cap; MessagesLost originals abandoned without (further) retry.
	WormsAborted, WormsRetried, RetriesExhausted, MessagesLost uint64
	// DownLinkNs integrates link-downtime over closed intervals
	// (Σ per-link down duration, simulated ns).
	DownLinkNs int64
	// DisruptHist is the latency CDF (µs) of messages that completed after
	// one or more retries, measured from the *original* submission.
	DisruptHist *stats.LogHist
}

// Injector drives one fault Script through a running simulator. It owns a
// private mutable labeling and router for that simulator (hot-swapped in at
// construction), so reconfigurations never touch the shared immutable
// System. Not safe for concurrent use — it lives inside the simulator's
// single-threaded event loop.
//
// Lifecycle: NewInjector once per simulator; Install (or InstallSpec) once
// per trial, after the simulator's Reset; the injector re-arms itself from
// event to event. The simulator's Reset hook restores the base labeling, so
// a reset simulator is bit-identical to a fresh one even if the previous
// trial ended mid-outage.
type Injector struct {
	sim    *sim.Simulator
	net    *topology.Network
	lab    *updown.Labeling // private, mutated by Relabel
	router *core.Router     // private, recompiled in place

	mask  *Mask // the failed-link set with apply/reject semantics
	dirty bool  // labeling currently differs from base

	script Script
	cursor int
	pol    Policy
	met    Metrics
	err    error
	// errSink receives internal failures (the workload layer surfaces them
	// as trial errors).
	errSink func(error)

	// stepFn/retryDoneFn are created once so arming and retry completion
	// allocate nothing.
	stepFn      func()
	retryDoneFn func(*sim.Worm, int64)
	// armedPending guards against Install while a scheduled step is live.
	armedPending int

	// origin maps a retried worm's ID to the original submission time.
	origin map[int64]int64
	// downSince maps a failed link key to its failure time.
	downSince map[uint64]int64

	// spec cache: equal Specs reuse the resolved script across trials.
	haveSpec     bool
	lastSpec     Spec
	cachedScript Script
}

// NewInjector builds the injector for a simulator and swaps in its private
// router. The simulator must use table-driven routing (the hot-swap path is
// about compiled tables) and cut-through switching (faults under
// store-and-forward IBR are not modeled).
func NewInjector(s *sim.Simulator) (*Injector, error) {
	base := s.Router()
	if !base.TableDriven() {
		return nil, fmt.Errorf("faults: reference-mode routers cannot hot-swap tables")
	}
	if s.Config().StoreAndForward {
		return nil, fmt.Errorf("faults: store-and-forward (IBR) simulators are not supported")
	}
	lab, err := updown.NewWithDown(base.Net, base.Lab.Root, nil)
	if err != nil {
		return nil, err
	}
	in := &Injector{
		sim: s,
		net: base.Net,
		lab: lab,
		// The private hot-swap router keeps the base router's routing
		// policy: fault injection must not silently downgrade an
		// adaptive simulator to baseline.
		router:    core.NewRouterPolicy(lab, base.Policy()),
		mask:      NewMask(base.Net),
		origin:    make(map[int64]int64),
		downSince: make(map[uint64]int64),
	}
	in.met.DisruptHist = stats.NewLatencyHist()
	in.stepFn = in.step
	in.retryDoneFn = in.recordRetryDone
	s.SwapRouter(in.router)
	s.SetAbortHook(in.onWormAborted)
	s.SetResetHook(in.onSimReset)
	return in, nil
}

// Net returns the network under injection.
func (in *Injector) Net() *topology.Network { return in.net }

// Router returns the injector's private (hot-swapped) router.
func (in *Injector) Router() *core.Router { return in.router }

// Labeling returns the private mutable labeling.
func (in *Injector) Labeling() *updown.Labeling { return in.lab }

// DownChannels returns the current failed-channel set. Shared; do not
// mutate.
func (in *Injector) DownChannels() *bitset.Set { return in.mask.Down() }

// DownLinks returns the number of currently failed links.
func (in *Injector) DownLinks() int { return in.mask.DownLinks() }

// Metrics returns the disruption metrics of the current trial so far.
// The histogram is shared with the injector; read, don't write.
func (in *Injector) Metrics() *Metrics { return &in.met }

// Err returns the first internal engine failure, if any.
func (in *Injector) Err() error { return in.err }

// SetErrorSink routes internal failures (which occur inside the event loop,
// with no caller to return to) to fn.
func (in *Injector) SetErrorSink(fn func(error)) { in.errSink = fn }

// Availability returns the live-link availability over the trial so far:
// 1 − Σ link-downtime / (links × elapsed). 1.0 before any time has passed.
func (in *Injector) Availability() float64 {
	elapsed := in.sim.Now()
	links := in.net.Links()
	if elapsed <= 0 || links == 0 {
		return 1.0
	}
	integral := in.met.DownLinkNs
	for _, since := range in.downSince {
		integral += elapsed - since
	}
	return 1.0 - float64(integral)/(float64(links)*float64(elapsed))
}

// Install prepares the injector for the coming trial: resets metrics and
// bookkeeping, restores the base labeling if needed, validates the script
// and arms its first event. Call after the simulator's Reset (the workload
// integration does this ordering for you).
func (in *Injector) Install(script Script, pol Policy) error {
	if in.armedPending > 0 {
		return fmt.Errorf("faults: Install while a fault step is still scheduled (Reset the simulator between trials)")
	}
	if err := script.Validate(); err != nil {
		return err
	}
	if pol.RetryDelayNs <= 0 {
		pol.RetryDelayNs = defaultRetryDelayNs
	}
	if in.dirty {
		if err := in.restoreBase(); err != nil {
			return err
		}
	}
	hist := in.met.DisruptHist
	hist.Reset()
	in.met = Metrics{DisruptHist: hist}
	clear(in.origin)
	clear(in.downSince)
	in.script = script
	in.cursor = 0
	in.pol = pol
	in.err = nil
	in.arm()
	return nil
}

// InstallSpec resolves a declarative Spec (caching the resolved script for
// equal Specs, so repeated trials regenerate nothing) and installs it.
func (in *Injector) InstallSpec(sp Spec, pol Policy) error {
	if !in.haveSpec || in.lastSpec != sp {
		script, err := sp.Resolve(in.net)
		if err != nil {
			return err
		}
		in.lastSpec = sp
		in.cachedScript = script
		in.haveSpec = true
	}
	return in.Install(in.cachedScript, pol)
}

// arm schedules the next script event inside the simulation.
func (in *Injector) arm() {
	if in.err != nil || in.cursor >= len(in.script) {
		return
	}
	in.armedPending++
	in.sim.At(in.script[in.cursor].AtNs, in.stepFn)
}

// step applies every script event due at the current simulated time as one
// batch (mutate → drain → relabel → recompile+swap → refresh queued LCAs),
// then re-arms.
func (in *Injector) step() {
	in.armedPending--
	now := in.sim.Now()
	start := in.cursor
	for in.cursor < len(in.script) && in.script[in.cursor].AtNs <= now {
		in.cursor++
	}
	if err := in.applyBatch(in.script[start:in.cursor]); err != nil {
		in.fail(err)
		return
	}
	in.arm()
}

// Apply applies a single mutation immediately (outside any installed
// script) — the entry point benchmarks and property tests drive directly.
// It reports whether the event was applied (false = rejected).
func (in *Injector) Apply(ev Event) (bool, error) {
	before := in.met.EventsApplied
	if err := in.applyBatch(Script{ev}); err != nil {
		return false, err
	}
	return in.met.EventsApplied > before, nil
}

// applyBatch runs the mutation pipeline for a batch of same-time events.
func (in *Injector) applyBatch(events Script) error {
	changed := false
	for _, ev := range events {
		if in.applyEvent(ev) {
			changed = true
			in.met.EventsApplied++
		} else {
			in.met.EventsRejected++
		}
	}
	if !changed {
		return nil
	}
	// Drain first: every launched worm dies at the mutation instant, under
	// the labeling it was routed with, the way Autonet discards every
	// packet in flight when it reconfigures. No worm then holds a channel
	// under the old labeling, so Theorem 1 covers the new one alone.
	// Retries submitted by the abort hook are still unlaunched, so the LCA
	// refresh below re-derives them under the new labeling.
	in.sim.AbortWorms()
	// Swap: in-place relabel of the masked topology, in-place table
	// recompile, atomic with respect to the event loop. The relabel
	// renumbers the processors, so the refresh also refills the
	// destination set of every unlaunched worm.
	if err := in.lab.Relabel(in.mask.Down()); err != nil {
		return fmt.Errorf("faults: relabel after mutation: %w", err)
	}
	in.router.Recompile(in.lab)
	in.met.Swaps++
	in.dirty = true
	in.sim.RecomputeQueuedLCAs()
	return nil
}

// applyEvent drives one event through the mask and settles the injector's
// accounting for the transitions it caused; false = rejected.
func (in *Injector) applyEvent(ev Event) bool {
	if !in.mask.Apply(ev) {
		return false
	}
	now := in.sim.Now()
	for _, l := range in.mask.Failed() {
		in.downSince[linkKey(l[0], l[1])] = now
		in.met.LinkDowns++
	}
	for _, l := range in.mask.Upped() {
		key := linkKey(l[0], l[1])
		in.met.DownLinkNs += now - in.downSince[key]
		delete(in.downSince, key)
		in.met.LinkUps++
	}
	return true
}

func linkKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// onWormAborted is the simulator's abort hook: it implements the retry
// policy and the disruption accounting. Returning true means a retry was
// submitted and the original's completion hook moved to it.
func (in *Injector) onWormAborted(w *sim.Worm) bool {
	in.met.WormsAborted++
	orig, isRetry := in.origin[w.ID]
	if !isRetry {
		orig = w.SubmitNs
	} else {
		delete(in.origin, w.ID)
	}
	if in.pol.MaxRetries <= 0 || w.Retry >= in.pol.MaxRetries {
		if isRetry {
			in.met.RetriesExhausted++
		}
		in.met.MessagesLost++
		return false
	}
	w2, err := in.sim.Submit(in.sim.Now()+in.pol.RetryDelayNs, w.Src, w.Dests)
	if err != nil {
		in.fail(fmt.Errorf("faults: retry submission: %w", err))
		in.met.MessagesLost++
		return false
	}
	w2.Retry = w.Retry + 1
	in.met.WormsRetried++
	in.origin[w2.ID] = orig
	w2.OnDelivered = w.OnDelivered
	if isRetry {
		// Already carries the retry-completion wrapper (or the plain
		// recorder) from its first retry.
		w2.OnComplete = w.OnComplete
	} else if inner := w.OnComplete; inner != nil {
		// Chain the workload's own completion hook behind the disruption
		// recorder. This closure is the one per-message fault-time
		// allocation (open-loop workloads set no hook and take the
		// allocation-free path below).
		w2.OnComplete = func(w2 *sim.Worm, t int64) {
			in.recordRetryDone(w2, t)
			inner(w2, t)
		}
	} else {
		w2.OnComplete = in.retryDoneFn
	}
	return true
}

// recordRetryDone observes the end-to-end latency of a message that
// completed after retries, measured from its original submission.
func (in *Injector) recordRetryDone(w *sim.Worm, t int64) {
	orig, ok := in.origin[w.ID]
	if !ok {
		return
	}
	delete(in.origin, w.ID)
	if w.Completed() {
		in.met.DisruptHist.Add(float64(t-orig) / 1000.0)
	}
}

// restoreBase relabels back to the fault-free base labeling. Like every
// relabel it drains the launched worms first and ends with
// RecomputeQueuedLCAs (after a simulator Reset there are no worms; an
// Install without one can find some in flight).
func (in *Injector) restoreBase() error {
	in.sim.AbortWorms()
	in.mask.Reset()
	clear(in.downSince)
	if err := in.lab.Relabel(in.mask.Down()); err != nil {
		return err
	}
	in.router.Recompile(in.lab)
	in.dirty = false
	in.sim.RecomputeQueuedLCAs()
	return nil
}

// onSimReset is the simulator's reset hook: a reset simulator must route
// bit-identically to a fresh one, so any leftover faults are rolled back.
// (The simulator's Reset already dropped every scheduled fault step.)
func (in *Injector) onSimReset() {
	in.script = nil
	in.cursor = 0
	in.armedPending = 0
	clear(in.origin)
	clear(in.downSince)
	if in.dirty {
		if err := in.restoreBase(); err != nil {
			// Unreachable: the empty mask over a connected base network
			// always relabels.
			in.fail(err)
		}
	}
}

func (in *Injector) fail(err error) {
	if in.err == nil {
		in.err = err
	}
	if in.errSink != nil {
		in.errSink(err)
	}
}
