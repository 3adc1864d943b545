package workload

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Workload generates the message stream of one simulation trial.
type Workload interface {
	// Name identifies the workload in registries and reports.
	Name() string
	// Generate submits the trial's messages through g. Open-loop
	// workloads schedule everything before returning; closed-loop
	// workloads prime their windows and install completion hooks that
	// keep submitting while the trial runs.
	Generate(g *Gen) error
}

// arrival is one precomputed open-loop submission.
type arrival struct {
	t      int64
	srcIdx int32
	// k is the destination count (1 = unicast).
	k int32
}

// Gen is the per-trial generation context a Workload runs against. All
// slices it hands out are scratch owned by the Runner and are valid only
// until the next call that touches them.
type Gen struct {
	// Sim is the simulator the trial runs on.
	Sim *sim.Simulator
	// Rand is the trial's deterministic random stream.
	Rand *rng.Source

	router   *core.Router
	worms    []*sim.Worm
	dests    []topology.NodeID
	idx      []int
	chooser  rng.Chooser
	arrivals []arrival
	// injector is the lazily created fault-injection engine for this
	// runner's simulator, retained across trials so its private labeling,
	// tables and scripts reuse their arenas. errSinkFn is the bound
	// hook-error sink, created once so per-trial installs allocate nothing.
	injector  *faults.Injector
	errSinkFn func(error)
	// hookErr records the first submission error raised inside a
	// completion hook (closed-loop resubmission), where there is no
	// caller to return it to; Runner.Trial surfaces it after the run.
	hookErr error
	// Closed-loop resubmission state. A single retained hook (clHook,
	// bound once per Gen) reads the cl* fields instead of capturing
	// per-launch state, so steady-state completions allocate nothing;
	// ClosedLoop.Generate refreshes the parameters each trial.
	clHook   func(w *sim.Worm, t int64)
	clBudget int
	clMF     float64
	clMD     int
	// recorder captures the trial's submission stream when armed (see
	// trace.go); nil when capture is off.
	recorder *TraceRecorder
}

// FaultInjector returns this runner's fault-injection engine, creating it
// (and hot-swapping the simulator onto a private router) on first use. The
// injector persists across trials; a trial without faults behaves
// bit-identically to one on a never-injected simulator (the private router
// is an exact rebuild of the shared one, property-tested).
func (g *Gen) FaultInjector() (*faults.Injector, error) {
	if g.injector == nil {
		inj, err := faults.NewInjector(g.Sim)
		if err != nil {
			return nil, err
		}
		g.injector = inj
		g.errSinkFn = g.setHookErr
		inj.SetErrorSink(g.errSinkFn)
	}
	return g.injector, nil
}

// setHookErr records an error raised inside a simulation hook.
func (g *Gen) setHookErr(err error) {
	if g.hookErr == nil {
		g.hookErr = err
	}
}

// NumProcs returns the processor count of the network under simulation.
func (g *Gen) NumProcs() int { return g.router.Net.NumProcs }

// Proc maps a dense processor index [0, NumProcs) to its node ID.
func (g *Gen) Proc(i int) topology.NodeID {
	return topology.NodeID(g.router.Net.NumSwitches + i)
}

// Submit submits one message and records the worm in trial order.
func (g *Gen) Submit(at int64, src topology.NodeID, dests []topology.NodeID) (*sim.Worm, error) {
	w, err := g.Sim.Submit(at, src, dests)
	if err != nil {
		return nil, err
	}
	if g.recorder != nil {
		g.recorder.record(g, w, src, dests)
	}
	g.worms = append(g.worms, w)
	return w, nil
}

// PickDests draws k distinct destination processors uniformly at random,
// excluding the source given by its dense index. The returned slice is
// scratch, valid until the next PickDests call — Submit copies it.
func (g *Gen) PickDests(srcIdx, k int) []topology.NodeID {
	n := g.NumProcs()
	if k < 1 || k > n-1 {
		panic(fmt.Sprintf("workload: cannot pick %d destinations among %d processors", k, n-1))
	}
	g.idx = g.chooser.AppendChoose(g.Rand, g.idx[:0], n-1, k)
	g.dests = g.dests[:0]
	for _, v := range g.idx {
		if v >= srcIdx {
			v++
		}
		g.dests = append(g.dests, g.Proc(v))
	}
	return g.dests
}

// submitArrivals drains the precomputed g.arrivals schedule in time order,
// drawing destinations per message. pick overrides destination selection
// when non-nil (hotspot-style workloads); otherwise destinations are k
// uniform picks excluding the source.
func (g *Gen) submitArrivals(pick func(a arrival) []topology.NodeID) error {
	sortArrivals(g.arrivals)
	for _, a := range g.arrivals {
		var dests []topology.NodeID
		if pick != nil {
			dests = pick(a)
		} else {
			dests = g.PickDests(int(a.srcIdx), int(a.k))
		}
		if _, err := g.Submit(a.t, g.Proc(int(a.srcIdx)), dests); err != nil {
			return err
		}
	}
	return nil
}

// Budget reports a workload's per-trial submission count for warmup sizing
// and admission clamps, resolving defaults against the processor count:
// the workload's MessageBudgetFor, which fixed-budget workloads implement
// by ignoring procs. Returns 0 when the workload has none (unknown budget).
func Budget(w Workload, procs int) int {
	type budgeted interface{ MessageBudgetFor(procs int) int }
	if b, ok := w.(budgeted); ok {
		return b.MessageBudgetFor(procs)
	}
	return 0
}

// sortArrivals orders the schedule by (time, source) — the same
// deterministic tie-break the legacy traffic generator used. slices.Sort is
// allocation-free, keeping the open-loop generation path zero-alloc.
func sortArrivals(a []arrival) {
	slices.SortFunc(a, func(x, y arrival) int {
		if x.t != y.t {
			return cmp.Compare(x.t, y.t)
		}
		return cmp.Compare(x.srcIdx, y.srcIdx)
	})
}

// Runner executes trials of arbitrary workloads over one reusable
// simulator. It retains the simulator's arenas and its own generation
// scratch across trials, so steady-state sweep loops allocate nothing. Not
// safe for concurrent use; run one Runner per goroutine.
type Runner struct {
	sim *sim.Simulator
	gen Gen
	// MaxSimTimeNs caps each trial's simulated time (deadlock insurance);
	// exceeding it is reported as an error by Trial.
	MaxSimTimeNs int64
	// Measurement scratch, reused across Measure calls: constant memory no
	// matter how many messages a measurement absorbs.
	summary *stats.Summary
	batch   *stats.BatchStream
	// counters accumulates the engine counters of every trial of the last
	// Measure call (see Counters).
	counters sim.Counters
}

// NewRunner builds a Runner over the given router with its own simulator.
func NewRunner(router *core.Router, cfg sim.Config) (*Runner, error) {
	s, err := sim.New(router, cfg)
	if err != nil {
		return nil, err
	}
	r := &Runner{sim: s, MaxSimTimeNs: 1e16}
	r.gen = Gen{Sim: s, Rand: rng.New(0), router: router}
	return r, nil
}

// Sim exposes the underlying simulator (counters, channel loads).
func (r *Runner) Sim() *sim.Simulator { return r.sim }

// Counters returns the engine counters summed over every trial of the last
// Measure call — the deterministic observability payload serve surfaces on
// the /run wire and campaign reports carry as per-cell columns. Exact
// uint64 sums in trial order: bit-identical for any pool or fleet split.
func (r *Runner) Counters() sim.Counters { return r.counters }

// ErrInvalidWorkload marks trial failures raised by workload generation —
// bad parameters for the network under simulation — as opposed to failures
// of the simulation itself. Serving layers map it to a client error.
var ErrInvalidWorkload = errors.New("workload: invalid parameters")

// Trial resets the simulator, reseeds the random stream, generates the
// workload and drains the simulation. The same (workload, seed) pair always
// reproduces bit-identical results.
func (r *Runner) Trial(w Workload, seed uint64) error {
	r.sim.Reset()
	r.gen.Rand.Seed(seed)
	r.gen.worms = r.gen.worms[:0]
	r.gen.arrivals = r.gen.arrivals[:0]
	r.gen.hookErr = nil
	if r.gen.recorder != nil {
		r.gen.recorder.reset(r.gen.NumProcs())
	}
	// With fewer than two processors no message has a destination other
	// than its source, whatever the workload.
	if n := r.gen.NumProcs(); n < 2 {
		return fmt.Errorf("%w: workload: %d processor(s) leave no destination", ErrInvalidWorkload, n)
	}
	if err := w.Generate(&r.gen); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidWorkload, err)
	}
	if err := r.sim.RunUntilIdle(r.MaxSimTimeNs); err != nil {
		return err
	}
	return r.gen.hookErr
}

// Worms returns the worms of the last trial in submission order. The slice
// and the worms are invalidated by the next Trial call.
func (r *Runner) Worms() []*sim.Worm { return r.gen.worms }

// FaultInjector returns the runner's fault engine, or nil if no fault
// workload has run on it. Read its Metrics after a Trial, before the next.
func (r *Runner) FaultInjector() *faults.Injector { return r.gen.injector }

// AppendLatenciesUs appends the latency (µs) of every completed worm past
// the first `skip` submissions to dst. Worms drained by fault injection
// never complete and are excluded (their disruption is accounted by the
// injector's metrics). The loop deliberately mirrors EachLatencyUs rather
// than wrapping it: an appending closure would escape and break the 0
// allocs/op sweep-trial benchmark.
func (r *Runner) AppendLatenciesUs(dst []float64, skip int) []float64 {
	for i, w := range r.gen.worms {
		if i < skip || !w.Completed() {
			continue
		}
		dst = append(dst, float64(w.Latency())/1000.0)
	}
	return dst
}

// EachLatencyUs streams the latency (µs) of every completed worm of the
// last trial past the first `skip` submissions into fn — the constant-memory
// alternative to AppendLatenciesUs.
func (r *Runner) EachLatencyUs(skip int, fn func(float64)) {
	for i, w := range r.gen.worms {
		if i < skip || !w.Completed() {
			continue
		}
		fn(float64(w.Latency()) / 1000.0)
	}
}

// MeasureOpts parameterizes the steady-state measurement harness.
type MeasureOpts struct {
	// Trials is the number of independent replications (default 1).
	Trials int
	// WarmupMessages per trial are excluded from measurement. It is
	// clamped to half of each trial's submissions so sparse workloads
	// (permutations, broadcast storms) still yield samples.
	WarmupMessages int
	// Batches is the batch-means count for the CI (default 10).
	Batches int
	// Seed is the base seed; trial i runs with a seed derived from it.
	Seed uint64
}

// TrialSeed derives the deterministic seed of trial i from a base seed —
// shared by Measure and the concurrent sweep scheduler so that trial i
// reproduces bit-identically no matter which simulator executes it.
func TrialSeed(base uint64, trial int) uint64 {
	return base + uint64(trial)*0x9e3779b97f4a7c15
}

// Measure runs warmup + measured trials of w and aggregates the latencies
// with constant-memory streaming statistics: exact moments and log-scale
// histogram quantiles over every observation, and confidence intervals from
// streaming batch means — the paper's "each data point within 1% of the
// mean or better, using 95% confidence intervals" methodology, honest in
// the presence of autocorrelation. No per-message sample is retained; the
// accumulators are fixed-size regardless of message count. For short series
// the batches degenerate to single observations, i.e. the plain
// per-observation CI.
func Measure(r *Runner, w Workload, opts MeasureOpts) (*stats.Summary, error) {
	trials := opts.Trials
	if trials <= 0 {
		trials = 1
	}
	batches := opts.Batches
	if batches <= 0 {
		batches = 10
	}
	if batches < 2 {
		// Mirror NewBatchStream's floor so the scratch-reuse comparison
		// below matches the stored Target.
		batches = 2
	}
	if r.summary == nil {
		r.summary = stats.NewSummary()
	} else {
		r.summary.Reset()
	}
	if r.batch == nil || r.batch.Target() != batches {
		r.batch = stats.NewBatchStream(batches)
	} else {
		r.batch.Reset()
	}
	observe := func(x float64) {
		r.summary.Add(x)
		r.batch.Add(x)
	}
	r.counters = sim.Counters{}
	for trial := 0; trial < trials; trial++ {
		if err := r.Trial(w, TrialSeed(opts.Seed, trial)); err != nil {
			return nil, fmt.Errorf("workload %s trial %d: %w", w.Name(), trial, err)
		}
		r.counters.Add(r.sim.Counters())
		skip := opts.WarmupMessages
		if max := len(r.Worms()) / 2; skip > max {
			skip = max
		}
		r.EachLatencyUs(skip, observe)
	}
	out := r.summary.Clone()
	out.SetBatchCI(r.batch.Stream())
	return out, nil
}
