package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	spamnet "repro"
	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config parameterizes a Service.
type Config struct {
	// System is the immutable network + routing structure every simulator
	// in the pool runs on.
	System *spamnet.System
	// PoolSize bounds the number of concurrently running simulators (and
	// worker goroutines). 0 selects GOMAXPROCS.
	PoolSize int
	// MaxTrials clamps the per-request trial count (0 = 64).
	MaxTrials int
	// MaxMessages clamps the per-trial message *submission* budget
	// (0 = 20000) of /run and of campaign cells alike, through
	// workload.ClampBudget, which also lowers permutation rounds and
	// pipeline stages to fit it and refuses a replayed trace over it.
	// Deliveries can exceed it by the multicast fan-out — worst case
	// messages × (procs-1) for broadcasts, which is the service's job to
	// serve — so size it (with the simulated-time horizon) for the largest
	// legitimate sweep.
	MaxMessages int
	// MaxInflight is the admission bound: how many requests (Run,
	// RunCampaign, RunShard, RunCell) may be in flight at once before new
	// ones are rejected with ErrSaturated (HTTP 429 + Retry-After). The
	// gauge behind it is the same inflight counter /healthz reports, and
	// the default is keyed off the pool gauge: 0 selects 32×PoolSize —
	// deep enough that queueing for the bounded pool stays the normal
	// regime, shallow enough that a stampede gets backpressure instead of
	// an unbounded queue. Negative = unlimited.
	MaxInflight int
	// Fleet, when it lists workers, runs this service as a scatter/gather
	// coordinator; see FleetConfig.
	Fleet FleetConfig
	// Metrics, when non-nil, registers the service's telemetry on it and
	// enables GET /metrics. Telemetry is strictly out-of-band (invariant 11:
	// observability transparency): every result byte is identical with it on
	// or off, and the instrumented hot path stays allocation-free.
	Metrics *telemetry.Registry
	// Logger, when non-nil, receives structured request and fleet logs with
	// correlation IDs. Nil keeps the service silent.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ on the handler. Keep
	// it off on exposed listeners.
	Pprof bool
}

const (
	defaultMaxTrials   = 64
	defaultMaxMessages = 20000
	// maxSwitches caps the size of a request-named topology, and maxSystems
	// bounds how many request keys, and so systems, stay cached besides the
	// default one. The cap is the shared admission bound
	// (topology.MaxAdmittedSwitches, also enforced on file-loaded adjacency
	// text): it keeps the routing tables' uint16 class index in range. It
	// does not bound memory; maxBuildBytes does.
	maxSwitches = topology.MaxAdmittedSwitches
	maxSystems  = 8
	// maxBuildBytes bounds a request-named topology's predicted build peak
	// (buildBytes). At 2 GiB it admits fattree:16x4 (16384 switches, 1.107
	// GB predicted) and up to 22,816 switches whatever their processor
	// count; fattree:25x4 (16.1 GB, 15.6 GB of it distance scratch) is
	// refused before anything is built.
	maxBuildBytes = 2 << 30
	// workerRunners is how many runners a pool worker keeps: just its most
	// recently used one. A runner holds about a tenth of its system's heap
	// after a trial, so one per worker per cached system would grow the
	// cached systems' footprint by a fifth, while building a runner costs
	// far less than the trial it serves.
	workerRunners = 1
)

// task is one trial awaiting a pooled simulator.
type task struct {
	ctx context.Context
	wg  *sync.WaitGroup
	// run executes the trial on one of the worker's runners; its error
	// lands in the request's shard, never shared between tasks.
	run func(runners *workload.RunnerCache) error
	// err receives the outcome; each task owns exactly one slot.
	err *error
}

// Service schedules sweep requests over the simulator pool. Safe for
// concurrent use.
type Service struct {
	cfg   Config
	tasks chan *task

	// simCfg is the pooled simulator configuration: the system's own,
	// untraced. home is the default system's key; systems pins it and
	// caches up to maxSystems more for requests that override the
	// topology, routing policy or root.
	simCfg  sim.Config
	home    workload.SystemKey
	systems *workload.SystemCache

	// campaignSem admits one campaign at a time: each campaign already
	// parallelizes to PoolSize workers of its own, so without this gate N
	// concurrent /campaign requests would run N×PoolSize simulators and
	// blow past the service's concurrency contract. Excess requests queue
	// here (cancellable via their context).
	campaignSem chan struct{}

	mu     sync.Mutex
	closed bool
	reqWG  sync.WaitGroup // in-flight Run calls
	workWG sync.WaitGroup // worker goroutines

	// maxInflight is the resolved admission bound; fingerprint identifies
	// this service's (system, clamps) configuration for fleet matching.
	maxInflight int64
	fingerprint uint64
	// fleet is non-nil in coordinator mode.
	fleet *fleet

	// metrics is never nil: the zero form is the telemetry-off no-op.
	// logger is nil when structured logging is off; start anchors /healthz
	// uptime.
	metrics *serveMetrics
	logger  *slog.Logger
	start   time.Time

	busy       atomic.Int64 // workers currently running a trial
	highWater  atomic.Int64 // max simultaneous busy workers observed
	requests   atomic.Int64 // /run requests completed
	trialsRun  atomic.Int64 // trials executed (not skipped)
	inflight   atomic.Int64 // requests currently admitted
	rejected   atomic.Int64 // requests refused by admission control
	trialsSkip atomic.Int64 // trials skipped by cancellation
}

// New builds the Service and starts its worker pool: PoolSize resettable
// simulators, each owned by one goroutine for its lifetime.
func New(cfg Config) (*Service, error) {
	if cfg.System == nil {
		return nil, errors.New("serve: nil System")
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = defaultMaxTrials
	}
	if cfg.MaxMessages <= 0 {
		cfg.MaxMessages = defaultMaxMessages
	}
	s := &Service{cfg: cfg, tasks: make(chan *task), campaignSem: make(chan struct{}, 1)}
	// A traced simulator must not be pooled: concurrent workers would call
	// one Logf callback from many goroutines and interleave unrelated
	// requests' traces. Tracing stays a Session-level debugging tool.
	s.simCfg = cfg.System.SimConfig()
	s.simCfg.Logf = nil
	s.home = workload.SystemKey{Policy: cfg.System.Policy(), Root: cfg.System.RootStrategy()}
	home := &workload.System{Key: s.home, Net: cfg.System.Topology(), Lab: cfg.System.Labeling(), Router: cfg.System.Router()}
	s.systems = workload.NewSystemCache(maxSystems, home)
	switch {
	case cfg.MaxInflight < 0:
		s.maxInflight = int64(^uint64(0) >> 1) // unlimited
	case cfg.MaxInflight == 0:
		s.maxInflight = int64(32 * cfg.PoolSize)
	default:
		s.maxInflight = int64(cfg.MaxInflight)
	}
	// The fingerprint folds the admission clamps in on top of the system's
	// own: fleet shards resolve their warmup and budget clamps worker-side,
	// so a clamp mismatch would silently change results.
	s.fingerprint = cfg.System.Fingerprint() ^
		(uint64(cfg.MaxTrials)*0x9e3779b97f4a7c15 + uint64(cfg.MaxMessages)*0xd1342543de82ef95)
	s.start = time.Now()
	s.logger = cfg.Logger
	// Telemetry registration happens after the clamps resolve (the gauge
	// functions read them) and before the fleet starts (its retry loop and
	// health probes share the registry).
	s.metrics = newServeMetrics(cfg.Metrics, s)
	if len(cfg.Fleet.Workers) > 0 {
		s.fleet = newFleet(s, cfg.Fleet)
	}
	for i := 0; i < cfg.PoolSize; i++ {
		runners := workload.NewRunnerCache(workerRunners)
		if _, err := runners.Get(home, s.simCfg); err != nil {
			close(s.tasks)
			s.workWG.Wait()
			return nil, fmt.Errorf("serve: building pooled simulator %d: %w", i, err)
		}
		s.workWG.Add(1)
		go s.worker(runners)
	}
	if s.fleet != nil {
		s.fleet.start()
	}
	return s, nil
}

// admit reserves an inflight slot or reports saturation. The counter it
// checks is the same gauge /healthz exposes, so clients watching the health
// endpoint see the pressure that produces their 429s.
func (s *Service) admit() error {
	for {
		cur := s.inflight.Load()
		if cur >= s.maxInflight {
			s.rejected.Add(1)
			return fmt.Errorf("%w: %d requests in flight (limit %d)", ErrSaturated, cur, s.maxInflight)
		}
		if s.inflight.CompareAndSwap(cur, cur+1) {
			s.metrics.inflightHighWater.Observe(cur + 1)
			return nil
		}
	}
}

// release returns an admitted slot.
func (s *Service) release() { s.inflight.Add(-1) }

// RetryAfter estimates, in whole seconds, when a rejected client should
// retry: one second per fully queued pool depth, capped at 30.
func (s *Service) RetryAfter() int {
	depth := s.inflight.Load() / int64(max(1, s.cfg.PoolSize))
	if depth < 1 {
		depth = 1
	}
	if depth > 30 {
		depth = 30
	}
	return int(depth)
}

// PoolSize returns the simulator pool bound.
func (s *Service) PoolSize() int { return s.cfg.PoolSize }

// worker drains the shared task queue on its private runners.
func (s *Service) worker(runners *workload.RunnerCache) {
	defer s.workWG.Done()
	for t := range s.tasks {
		if t.ctx.Err() != nil {
			*t.err = t.ctx.Err()
			s.trialsSkip.Add(1)
			t.wg.Done()
			continue
		}
		n := s.busy.Add(1)
		for {
			hw := s.highWater.Load()
			if n <= hw || s.highWater.CompareAndSwap(hw, n) {
				break
			}
		}
		s.metrics.poolHighWater.Observe(n)
		var started time.Time
		if s.metrics.enabled {
			started = time.Now()
		}
		*t.err = t.run(runners)
		if s.metrics.enabled {
			s.metrics.trialSeconds.Observe(time.Since(started).Seconds())
		}
		s.trialsRun.Add(1)
		s.busy.Add(-1)
		t.wg.Done()
	}
}

// Close drains in-flight requests and stops the worker pool. Subsequent Run
// calls fail.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.fleet != nil {
		s.fleet.stop()
	}
	s.reqWG.Wait()
	close(s.tasks)
	s.workWG.Wait()
}

// RunRequest names a registered workload scenario and its sweep shape.
type RunRequest struct {
	// Scenario is a name from the workload registry (see /scenarios).
	Scenario string `json:"scenario"`
	// Trials is the number of independent replications (0 = 1, clamped to
	// the service's MaxTrials).
	Trials int `json:"trials,omitempty"`
	// WarmupMessages per trial are excluded from measurement; 0 selects
	// the default of one tenth of the message budget, -1 disables warmup.
	WarmupMessages int `json:"warmup_messages,omitempty"`
	// Batches is the batch-means target for the within-trial CI (0 = 10).
	// It only shapes single-trial requests: with 2+ trials the CI comes
	// from the means of the independent replications instead.
	Batches int `json:"batches,omitempty"`
	// Seed is the base random seed (0 is a valid seed).
	Seed uint64 `json:"seed,omitempty"`
	// Params are the scenario knobs; zero values select scenario defaults.
	Params workload.Params `json:"params,omitempty"`
}

// RunResponse is the streaming-statistics result of one sweep request.
type RunResponse struct {
	Scenario string `json:"scenario"`
	// Topology echoes the request-selected topology spec ("" = the
	// service's default system).
	Topology string `json:"topology,omitempty"`
	Trials   int    `json:"trials"`
	Seed     uint64 `json:"seed"`
	Warmup   int    `json:"warmup_messages"`
	// Count is the number of measured message latencies.
	Count int64 `json:"count"`
	// CISamples is the number of statistical samples behind CI95Us: trial
	// means across replications, or batch means within a single trial.
	CISamples int64   `json:"ci_samples"`
	MeanUs    float64 `json:"mean_us"`
	CI95Us    float64 `json:"ci95_us"`
	MinUs     float64 `json:"min_us"`
	MaxUs     float64 `json:"max_us"`
	P50Us     float64 `json:"p50_us"`
	P90Us     float64 `json:"p90_us"`
	P99Us     float64 `json:"p99_us"`
	// QuantileErrBound is the histogram's worst-case relative quantile
	// error (half a log-scale bin).
	QuantileErrBound float64 `json:"quantile_rel_err_bound"`
	PoolSize         int     `json:"pool_size"`
	// Counters aggregates the engine counters over every measured trial —
	// exact uint64 sums in trial order, so the field is bit-identical for
	// any pool size or fleet split. It is a deterministic result (not
	// telemetry): present whether or not metrics are enabled.
	Counters sim.Counters `json:"counters"`
	// ElapsedMs is wall-clock service time; zeroed in golden comparisons.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// shard is one trial's private result: a constant-memory summary plus the
// trial's engine counters and an error slot, owned exclusively by that
// trial's task.
type shard struct {
	sum      *stats.Summary
	counters sim.Counters
	err      error
}

// ErrClosed reports a Run attempted after Close.
var ErrClosed = errors.New("serve: service closed")

// ErrUnknownScenario reports a request naming no registered scenario.
var ErrUnknownScenario = errors.New("serve: unknown scenario")

// ErrBadTopology reports a request-selected topology the service rejects:
// unparseable spec, file: family (no server-side path reads on request), a
// size beyond the admission caps or the build bound, or more gnm extra links
// than fit.
var ErrBadTopology = errors.New("serve: bad topology")

// buildBytes predicts the peak bytes one system build needs for s switches:
// the table compiler's 4·S² bytes of distance scratch and S²/8 of
// extended-descendant scratch. What the labeling holds meanwhile is flat in
// the node and channel counts, so it adds no term. Within the switch cap it
// stays far from int64 overflow.
func buildBytes(s int) int64 {
	S := int64(s)
	return 4*S*S + S*S/8
}

// admitTopology parses a request-named topology spec and screens it before
// any build work: no file: specs (no server-side path reads on request), at
// most maxSwitches switches and topology.MaxAdmittedNodes nodes (switches
// plus processors), a predicted build peak of at most maxBuildBytes, and for
// gnm no more extra links than the 4-port budget can place (2 per switch),
// which bounds the placement attempts.
func admitTopology(spec string) (topology.Spec, error) {
	sp, err := topology.ParseSpec(spec)
	if err != nil {
		return sp, fmt.Errorf("%w: %w", ErrBadTopology, err)
	}
	if sp.Family == "file" {
		return sp, fmt.Errorf("%w: file topologies are not servable", ErrBadTopology)
	}
	if n := sp.Switches(); n < 1 || n > maxSwitches {
		return sp, fmt.Errorf("%w: %q expands to %d switches (cap %d)", ErrBadTopology, spec, n, maxSwitches)
	}
	if n := sp.Nodes(); n < 1 || n > topology.MaxAdmittedNodes {
		return sp, fmt.Errorf("%w: %q expands to %d nodes (cap %d)", ErrBadTopology, spec, n, topology.MaxAdmittedNodes)
	}
	if b := buildBytes(sp.Switches()); b > maxBuildBytes {
		return sp, fmt.Errorf("%w: %q predicts a %d-byte build peak (bound %d)", ErrBadTopology, spec, b, int64(maxBuildBytes))
	}
	if sp.Family == "gnm" && sp.Extra > 2*sp.A {
		return sp, fmt.Errorf("%w: %q asks for %d extra links (cap %d)", ErrBadTopology, spec, sp.Extra, 2*sp.A)
	}
	return sp, nil
}

// ErrSaturated reports a request rejected by admission control: the bounded
// request queue (Config.MaxInflight) is full. HTTP maps it to 429 with a
// Retry-After hint — backpressure instead of an unbounded queue.
var ErrSaturated = errors.New("serve: saturated")

// ErrBadShard reports a shard request whose trial range falls outside the
// resolved run (client error).
var ErrBadShard = errors.New("serve: bad shard")

// resolvedRun is a RunRequest after validation and clamping: the exact
// per-trial execution plan. Resolution is a pure function of (request,
// service clamps), so a fleet worker with matching configuration resolves
// the same plan and its shards are bit-identical to local ones.
type resolvedRun struct {
	req    RunRequest
	sc     workload.Scenario
	trials int
	params workload.Params
	warmup int
	// sys and cfg select the runner every trial runs on.
	sys *workload.System
	cfg sim.Config
}

// Run executes one sweep request, blocking until every trial completes or
// ctx cancels. In coordinator mode the trial range is scattered over the
// worker fleet (gathering shards in trial order); otherwise — and as the
// fallback whenever workers fail — trials run on the local pool. See the
// package comment for the determinism and memory guarantees.
func (s *Service) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.reqWG.Add(1)
	s.mu.Unlock()
	defer s.reqWG.Done()
	if err := s.admit(); err != nil {
		return nil, err
	}
	defer s.release()

	rv, err := s.resolveRun(req)
	if err != nil {
		return nil, err
	}
	var shards []shard
	if s.fleet != nil {
		shards, err = s.fleet.scatterRun(ctx, rv)
	} else {
		shards, err = s.runTrials(ctx, rv, 0, rv.trials)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for t := range shards {
		if shards[t].err != nil {
			return nil, &TrialError{Scenario: req.Scenario, Trial: t, Err: shards[t].err}
		}
	}
	resp, err := s.mergeTrials(rv, shards)
	if err != nil {
		return nil, err
	}
	s.requests.Add(1)
	return resp, nil
}

// resolveRun validates req and resolves every clamp and default.
func (s *Service) resolveRun(req RunRequest) (*resolvedRun, error) {
	sc, ok := workload.Lookup(req.Scenario)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownScenario, req.Scenario)
	}
	trials := req.Trials
	if trials <= 0 {
		trials = 1
	}
	if trials > s.cfg.MaxTrials {
		trials = s.cfg.MaxTrials
	}
	// A request that names no topology, routing policy or root runs on the
	// default system. A request that names any of them ("topology",
	// "routing" + "misroute_budget", "root") runs on the system they name,
	// validated, built and cached up front, whose trials run on the same
	// bounded pool: an empty routing is baseline, and on the default
	// topology an empty root keeps the default root strategy. The budget is
	// clamped into the params so every layer (local trials, fleet shards)
	// sees the same resolved value.
	params := req.Params
	if err := workload.ValidateRoutingParams(params); err != nil {
		return nil, fmt.Errorf("%w: %w", workload.ErrInvalidWorkload, err)
	}
	pol, budget, _ := workload.RoutingPolicy(params)
	params.MisrouteBudget = budget
	key, cfg := s.home, s.simCfg
	if params.Topology != "" || params.Routing != "" || params.Root != "" {
		key.Policy, cfg.MisrouteBudget = pol, budget
		root, named, _ := workload.RootStrategy(params)
		if params.Topology != "" {
			sp, err := admitTopology(params.Topology)
			if err != nil {
				return nil, err
			}
			key = workload.KeyFor(sp, req.Seed, pol, root)
		} else if named {
			key.Root = root
		}
	}
	sys, err := s.systems.Get(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadTopology, err)
	}
	procs := sys.Net.NumProcs
	if params.Topology != "" {
		// A topology-selecting request shares scenario defaults sized for
		// the 128-proc default system; clamp fan-out to what the selected
		// network can express rather than failing the trial. (Policy/root
		// overrides on the default topology keep the default sizing.)
		params = workload.ClampFanOut(params, procs)
	}
	// Replay requests carry the full submission stream inline; validate
	// the trace before any trial runs so a malformed or mismatched file is
	// a client error (ClampBudget refuses an oversized one).
	if req.Scenario == "replay" || params.Trace != "" {
		tr, err := workload.ParseTrace(params.Trace)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", workload.ErrInvalidWorkload, err)
		}
		if tr.Procs != procs {
			return nil, fmt.Errorf("%w: workload: trace was captured on %d processors, network has %d",
				workload.ErrInvalidWorkload, tr.Procs, procs)
		}
	}
	if params, err = workload.ClampBudget(sc, params, procs, s.cfg.MaxMessages); err != nil {
		return nil, err
	}
	messages := workload.Budget(sc.New(params), procs)
	// Validate the fault-injection parameters up front: bad drain/profile
	// strings are a client error, not a trial failure — including for the
	// pre-wired fault scenarios, whose constructors cannot surface errors.
	if err := workload.ValidateFaultParams(params); err != nil {
		return nil, fmt.Errorf("%w: %w", workload.ErrInvalidWorkload, err)
	}
	warmup := req.WarmupMessages
	switch {
	case warmup < 0:
		warmup = 0
	case warmup == 0:
		warmup = messages / 10
	}
	return &resolvedRun{req: req, sc: sc, trials: trials, params: params, warmup: warmup, sys: sys, cfg: cfg}, nil
}

// runTrials executes trials [lo, hi) of rv on the local pool, returning
// their shards in trial order (index 0 = trial lo). Trial t runs a
// single-trial Measure seeded with TrialSeed(base, t), so the shard is
// bit-identical to trial t of a serial trials-long Measure — and to the
// same trial computed by any other pool or process.
func (s *Service) runTrials(ctx context.Context, rv *resolvedRun, lo, hi int) ([]shard, error) {
	if lo < 0 || hi < lo || hi > rv.trials {
		return nil, fmt.Errorf("%w: trial range [%d,%d) outside [0,%d)", ErrBadShard, lo, hi, rv.trials)
	}
	n := hi - lo
	shards := make([]shard, n)
	var wg sync.WaitGroup
	wg.Add(n)
	// entered counts loop-body iterations: each such trial's wg slot is
	// settled either by a worker or by the cancellation select below; the
	// cleanup loop settles the trials never reached.
	entered := 0
	for t := lo; t < hi && ctx.Err() == nil; t++ {
		t := t
		entered++
		sh := &shards[t-lo]
		seed := workload.TrialSeed(rv.req.Seed, t)
		tk := &task{
			ctx: ctx,
			wg:  &wg,
			err: &sh.err,
			// One shard is exactly one single-trial Measure: the warmup
			// clamp and the streaming accumulation live in the workload
			// harness alone, on the worker's reused scratch. TrialSeed of
			// a single-trial Measure is its base seed, so shard t is
			// bit-identical to trial t of a serial trials-long Measure.
			run: func(runners *workload.RunnerCache) error {
				r, err := s.runner(runners, rv)
				if err != nil {
					return err
				}
				w, err := workload.ApplyFaults(rv.sc.New(rv.params), rv.params)
				if err != nil {
					return err
				}
				sum, err := workload.Measure(r, w, workload.MeasureOpts{
					Trials:         1,
					WarmupMessages: rv.warmup,
					Batches:        rv.req.Batches,
					Seed:           seed,
				})
				if err != nil {
					return err
				}
				sh.sum = sum
				sh.counters = r.Counters()
				s.metrics.observeTrialCounters(sh.counters)
				return nil
			},
		}
		select {
		case s.tasks <- tk:
		case <-ctx.Done():
			wg.Done() // this trial was never submitted
		}
	}
	// Account for trials never reached after cancellation.
	for i := entered; i < n; i++ {
		wg.Done()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return shards, nil
}

// runner returns the worker's runner for rv's system and configuration. A
// reset runner is bit-identical to a fresh one, so reusing it across trials
// and requests changes no result.
func (s *Service) runner(runners *workload.RunnerCache, rv *resolvedRun) (*workload.Runner, error) {
	r, err := runners.Get(rv.sys, rv.cfg)
	if err != nil {
		return nil, err
	}
	r.MaxSimTimeNs = s.cfg.System.MaxSimTimeNs()
	return r, nil
}

// mergeTrials merges one shard per trial (index 0 = trial 0) into the
// response. Merging happens in trial order: the fixed float-operation order
// makes the response bit-identical for any pool size, fleet size, or retry
// schedule. Callers must have checked every shard's error slot already.
func (s *Service) mergeTrials(rv *resolvedRun, shards []shard) (*RunResponse, error) {
	merged := stats.NewSummary()
	trialMeans := &stats.Stream{}
	var counters sim.Counters
	for t := range shards {
		// Every shard is populated here: cancellation and trial errors
		// return in the callers, so each task ran Measure to completion.
		if err := merged.Merge(shards[t].sum); err != nil {
			return nil, err
		}
		if shards[t].sum.Count() > 0 {
			trialMeans.Add(shards[t].sum.Mean())
		}
		counters.Add(shards[t].counters)
	}
	if rv.trials >= 2 {
		merged.SetBatchCI(trialMeans)
	} else if len(shards) == 1 {
		// Single trial: the CI comes from Measure's within-trial batch
		// means (Merge deliberately drops it, so reinstall).
		merged.SetBatchCI(shards[0].sum.BatchCI())
	}

	// With fewer than 2 CI samples the half-width is mathematically +Inf
	// ("unknown"); JSON cannot carry Inf, so report 0 with ci_samples
	// telling the client the CI is meaningless.
	ci95 := merged.CI95()
	if merged.N() < 2 {
		ci95 = 0
	}
	return &RunResponse{
		Scenario:         rv.req.Scenario,
		Topology:         rv.params.Topology,
		Trials:           rv.trials,
		Seed:             rv.req.Seed,
		Warmup:           rv.warmup,
		Count:            merged.Count(),
		CISamples:        merged.N(),
		MeanUs:           merged.Mean(),
		CI95Us:           ci95,
		MinUs:            merged.Min(),
		MaxUs:            merged.Max(),
		P50Us:            merged.Quantile(0.50),
		P90Us:            merged.Quantile(0.90),
		P99Us:            merged.Quantile(0.99),
		QuantileErrBound: merged.Hist().QuantileErrorBound(),
		PoolSize:         s.cfg.PoolSize,
		Counters:         counters,
	}, nil
}

// CampaignRequest asks the service to execute a whole reproduction
// campaign: either a built-in manifest by name ("paper", "smoke", "scale") or an
// inline manifest. The campaign runs with the service's admission clamps
// (MaxTrials, MaxMessages), every grid topology passes the admission screen
// of /run and /cell (which refuses "scale"'s 62500-switch cell), and its
// worker count is bounded by the pool size.
type CampaignRequest struct {
	// Name selects a built-in manifest; mutually exclusive with Manifest.
	Name string `json:"name,omitempty"`
	// Manifest is an inline campaign manifest.
	Manifest *campaign.Manifest `json:"manifest,omitempty"`
}

// CampaignResponse carries the rendered campaign artifacts.
type CampaignResponse struct {
	Name        string            `json:"name"`
	Experiments int               `json:"experiments"`
	Cells       int               `json:"cells"`
	Computed    int               `json:"computed"`
	Report      string            `json:"report"`
	SVGs        map[string]string `json:"svgs,omitempty"`
	// ElapsedMs is wall-clock service time; zeroed in golden comparisons.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// ErrBadCampaign reports an invalid campaign request (client error).
var ErrBadCampaign = errors.New("serve: bad campaign")

// maxCampaignCells bounds how many grid cells one campaign request may
// expand to.
const maxCampaignCells = 128

// RunCampaign executes a campaign request. Campaign cells run on the
// engine's own session pool, sized to this service's pool bound — one
// campaign therefore consumes at most PoolSize cores, like any other
// request mix. Determinism follows from the campaign engine's guarantee.
func (s *Service) RunCampaign(ctx context.Context, req CampaignRequest) (*CampaignResponse, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.reqWG.Add(1)
	s.mu.Unlock()
	defer s.reqWG.Done()
	if err := s.admit(); err != nil {
		return nil, err
	}
	defer s.release()

	select {
	case s.campaignSem <- struct{}{}:
		defer func() { <-s.campaignSem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	m := req.Manifest
	if req.Name != "" {
		if m != nil {
			return nil, fmt.Errorf("%w: name and manifest are mutually exclusive", ErrBadCampaign)
		}
		bm, ok := campaign.Builtin(req.Name)
		if !ok {
			return nil, fmt.Errorf("%w: unknown built-in manifest %q (have %v)", ErrBadCampaign, req.Name, campaign.BuiltinNames())
		}
		m = bm
	}
	if m == nil {
		return nil, fmt.Errorf("%w: need name or manifest", ErrBadCampaign)
	}
	// Client-side validation up front: manifest errors and oversize grids
	// are the requester's fault, later failures are the server's.
	if err := m.Validate(false); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCampaign, err)
	}
	for _, g := range m.Grids {
		for _, ts := range g.Topologies {
			if _, err := admitTopology(ts); err != nil {
				return nil, err
			}
		}
	}
	if n := m.NumCells(); n > maxCampaignCells {
		return nil, fmt.Errorf("%w: manifest expands to %d cells (cap %d)", ErrBadCampaign, n, maxCampaignCells)
	}
	opts := campaign.Options{
		Workers:     s.cfg.PoolSize,
		Sim:         s.simCfg,
		MaxTrials:   s.cfg.MaxTrials,
		MaxMessages: s.cfg.MaxMessages,
		MaxCells:    maxCampaignCells,
		Metrics:     s.metrics.campaign,
	}
	if s.logger != nil {
		// Campaign progress (per-cell completions, ETA) flows into the
		// structured log, correlated with the originating request.
		id := telemetry.RequestID(ctx)
		opts.Logf = func(format string, args ...any) {
			s.logger.Info(fmt.Sprintf(format, args...), "id", id, "component", "campaign")
		}
	}
	if s.fleet != nil {
		// Coordinator mode: scatter grid cells over the worker fleet. The
		// engine still owns checkpointing and result slotting, so the
		// report is byte-identical to a local run by the CellRunner
		// determinism contract (retries and local fallback included).
		opts.CellRunner = s.fleet.runCell
	}
	res, err := campaign.Run(ctx, m, opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	s.requests.Add(1)
	return &CampaignResponse{
		Name:        m.Name,
		Experiments: len(res.Experiments),
		Cells:       len(res.Cells),
		Computed:    res.Computed,
		Report:      res.Report,
		SVGs:        res.SVGs,
	}, nil
}

// TrialError reports a trial that failed inside the simulator pool — a
// server-side fault, distinct from an invalid request.
type TrialError struct {
	Scenario string
	Trial    int
	Err      error
}

func (e *TrialError) Error() string {
	return fmt.Sprintf("serve: scenario %s trial %d: %v", e.Scenario, e.Trial, e.Err)
}

func (e *TrialError) Unwrap() error { return e.Err }

// ShardRequest asks a fleet worker for trials [TrialLo, TrialHi) of a run.
// The worker re-resolves the request's clamps and defaults itself — safe
// because resolution is a pure function of (request, service clamps) and
// the coordinator only dispatches to fingerprint-matched workers.
type ShardRequest struct {
	Run     RunRequest `json:"run"`
	TrialLo int        `json:"trial_lo"`
	TrialHi int        `json:"trial_hi"`
}

// ShardResponse carries one exact per-trial summary per requested trial, in
// trial order. The wire forms round-trip float bits exactly, so the
// coordinator's merge is bit-identical to a local run's. Counters carries
// each trial's engine counters in the same order (uint64s round-trip JSON
// exactly), so the coordinator's counter aggregate matches a local run too.
type ShardResponse struct {
	Trials   []stats.SummaryWire `json:"trials"`
	Counters []sim.Counters      `json:"counters,omitempty"`
}

// RunShard executes one trial range on the local pool — the worker half of
// the fleet scatter (POST /shard).
func (s *Service) RunShard(ctx context.Context, req ShardRequest) (*ShardResponse, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.reqWG.Add(1)
	s.mu.Unlock()
	defer s.reqWG.Done()
	if err := s.admit(); err != nil {
		return nil, err
	}
	defer s.release()

	rv, err := s.resolveRun(req.Run)
	if err != nil {
		return nil, err
	}
	shards, err := s.runTrials(ctx, rv, req.TrialLo, req.TrialHi)
	if err != nil {
		return nil, err
	}
	resp := &ShardResponse{
		Trials:   make([]stats.SummaryWire, len(shards)),
		Counters: make([]sim.Counters, len(shards)),
	}
	for i := range shards {
		if shards[i].err != nil {
			return nil, &TrialError{Scenario: req.Run.Scenario, Trial: req.TrialLo + i, Err: shards[i].err}
		}
		resp.Trials[i] = shards[i].sum.Wire()
		resp.Counters[i] = shards[i].counters
	}
	s.requests.Add(1)
	return resp, nil
}

// CellRequest asks a fleet worker for one campaign grid cell (POST /cell).
type CellRequest struct {
	Grid campaign.Grid `json:"grid"`
	Cell campaign.Cell `json:"cell"`
}

// RunCell computes one campaign grid cell — the worker half of the fleet
// campaign scatter. The cell runs inside one pooled task slot, so cell
// concurrency is bounded exactly like trial concurrency.
func (s *Service) RunCell(ctx context.Context, req CellRequest) (*campaign.CellResult, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.reqWG.Add(1)
	s.mu.Unlock()
	defer s.reqWG.Done()
	if err := s.admit(); err != nil {
		return nil, err
	}
	defer s.release()

	// The same admission screen request-named topologies get, before any
	// build work happens.
	if _, err := admitTopology(req.Cell.Topology); err != nil {
		return nil, err
	}
	opts := campaign.Options{
		Sim:         s.simCfg,
		MaxTrials:   s.cfg.MaxTrials,
		MaxMessages: s.cfg.MaxMessages,
	}
	var (
		cr     *campaign.CellResult
		runErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	tk := &task{
		ctx: ctx,
		wg:  &wg,
		err: &runErr,
		// The worker's runners are ignored: cells build their own systems.
		// Occupying the slot is the point — it bounds concurrent work.
		run: func(*workload.RunnerCache) error {
			res, err := campaign.RunSingleCell(ctx, req.Grid, req.Cell, opts)
			if err != nil {
				return err
			}
			cr = res
			return nil
		},
	}
	select {
	case s.tasks <- tk:
	case <-ctx.Done():
		wg.Done() // never submitted
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	s.requests.Add(1)
	return cr, nil
}
