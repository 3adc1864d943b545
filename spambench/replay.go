package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	spamnet "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/updown"
	"repro/internal/workload"
)

// replayer re-executes /run requests in process through each layer's public
// functions, in the order serve.Service.Run calls them: on an
// alternate-system cache miss topology.Spec.Build, updown.New and
// core.NewRouterPolicy; then per trial a fresh workload.NewRunner on an
// alternate system (a warm pooled runner on the default one) and a
// single-trial workload.Measure; then the trial-order stats.Summary.Merge.
// Its responses are the output check's reference, and with a tracer it is
// the traced run's layer ladder.
//
// The generated requests stay inside serve's default clamps (trials ≤ 64,
// messages ≤ 20000, no permutation, storm, pipeline or replay knobs), so
// the replay does not repeat those clamps.
type replayer struct {
	sys      *spamnet.System
	simCfg   sim.Config
	poolSize int
	// cacheCap bounds the alternate systems kept, FIFO like serve's cache.
	cacheCap int

	mu     sync.Mutex
	alts   map[string]*altSys
	order  []string
	builds []buildStat
}

type altSys struct {
	router *core.Router
	procs  int
}

// buildStat records one system build for the per-layer metrics.
type buildStat struct {
	labelAllocBytes uint64
	tableBytes      int64
}

func newReplayer(sys *spamnet.System, poolSize, cacheCap int) *replayer {
	cfg := sys.SimConfig()
	cfg.Logf = nil
	return &replayer{sys: sys, simCfg: cfg, poolSize: poolSize, cacheCap: cacheCap, alts: map[string]*altSys{}}
}

// newDefaultRunner returns a runner on the default system, configured like
// a pooled simulator.
func (rp *replayer) newDefaultRunner() (*workload.Runner, error) {
	r, err := workload.NewRunner(rp.sys.Router(), rp.simCfg)
	if err != nil {
		return nil, err
	}
	r.MaxSimTimeNs = rp.sys.MaxSimTimeNs()
	return r, nil
}

// resolved is a request after scenario lookup, routing resolution, system
// selection and warmup defaulting.
type resolved struct {
	req    serve.RunRequest
	sc     workload.Scenario
	trials int
	params workload.Params
	warmup int
	alt    *altSys
}

// trialOut is one trial's summary and engine counters.
type trialOut struct {
	sum      *stats.Summary
	counters sim.Counters
}

// replay runs one request down the ladder. runners are the warm
// default-system runners this call may use; their count is the trial
// parallelism (the pool size on the ladder, one for the reference).
func (rp *replayer) replay(req serve.RunRequest, runners []*workload.Runner, tr *tracer, parent, reqID int) (*serve.RunResponse, *resolved, error) {
	rv, err := rp.resolve(req, tr, parent, reqID)
	if err != nil {
		return nil, nil, err
	}
	outs, err := rp.runTrials(rv, runners, tr, parent, reqID)
	if err != nil {
		return nil, nil, err
	}
	id := tr.begin("stats.merge", parent, reqID)
	resp, err := rp.merge(rv, outs)
	tr.end(id)
	return resp, rv, err
}

func (rp *replayer) resolve(req serve.RunRequest, tr *tracer, parent, reqID int) (*resolved, error) {
	sc, ok := workload.Lookup(req.Scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", req.Scenario)
	}
	params := req.Params
	pol, budget, err := workload.RoutingPolicy(params)
	if err != nil {
		return nil, err
	}
	params.MisrouteBudget = budget
	rv := &resolved{req: req, sc: sc, trials: max(1, req.Trials)}
	procs := rp.sys.Topology().NumProcs
	switch {
	case params.Topology != "":
		if rv.alt, err = rp.system(params.Topology, req.Seed, pol, params.Root, tr, parent, reqID); err != nil {
			return nil, err
		}
		procs = rv.alt.procs
		params = workload.ClampFanOut(params, procs)
	case pol != core.PolicyBaseline || params.Root != "":
		return nil, errors.New("routing or root overrides on the default topology are not replayed")
	}
	rv.params = params
	switch rv.warmup = req.WarmupMessages; {
	case rv.warmup < 0:
		rv.warmup = 0
	case rv.warmup == 0:
		rv.warmup = workload.Budget(sc.New(params), procs) / 10
	}
	return rv, nil
}

// system returns the alternate system for (spec, seed, policy, root),
// building it on a cache miss.
func (rp *replayer) system(spec string, seed uint64, pol core.Policy, root string, tr *tracer, parent, reqID int) (*altSys, error) {
	sp, err := topology.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|%d|%v|%s", sp.String(), seed, pol, root)
	rp.mu.Lock()
	a := rp.alts[key]
	rp.mu.Unlock()
	if a != nil {
		return a, nil
	}
	strat, err := updown.ParseRootStrategy(root)
	if err != nil {
		return nil, err
	}
	id := tr.begin("topology.build", parent, reqID)
	net, err := sp.Build(seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	id = tr.begin("updown.label", parent, reqID)
	lab, err := updown.New(net, strat)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
	}
	id = tr.begin("core.compile", parent, reqID)
	router := core.NewRouterPolicy(lab, pol)
	tr.end(id)
	a = &altSys{router: router, procs: net.NumProcs}

	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.builds = append(rp.builds, buildStat{
		labelAllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		tableBytes:      router.TableMemStats().TableBytes,
	})
	if cached := rp.alts[key]; cached != nil {
		return cached, nil
	}
	if len(rp.order) >= rp.cacheCap {
		delete(rp.alts, rp.order[0])
		rp.order = rp.order[1:]
	}
	rp.alts[key] = a
	rp.order = append(rp.order, key)
	return a, nil
}

// newTrialRunner returns a fresh runner for an alternate-system trial,
// configured the way serve configures one.
func (rp *replayer) newTrialRunner(rv *resolved) (*workload.Runner, error) {
	cfg := rp.simCfg
	cfg.MisrouteBudget = rv.params.MisrouteBudget
	r, err := workload.NewRunner(rv.alt.router, cfg)
	if err != nil {
		return nil, err
	}
	r.MaxSimTimeNs = rp.sys.MaxSimTimeNs()
	return r, nil
}

// runTrials runs every trial as a single-trial Measure seeded with
// TrialSeed(seed, t), len(runners) at a time like the pool's workers.
func (rp *replayer) runTrials(rv *resolved, runners []*workload.Runner, tr *tracer, parent, reqID int) ([]trialOut, error) {
	outs := make([]trialOut, rv.trials)
	errs := make([]error, rv.trials)
	par := min(len(runners), rv.trials)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := w; t < rv.trials; t += par {
				r := runners[w]
				if rv.alt != nil {
					id := tr.begin("workload.runner", parent, reqID)
					var err error
					r, err = rp.newTrialRunner(rv)
					tr.end(id)
					if err != nil {
						errs[t] = err
						return
					}
				}
				wl, err := rv.newWorkload()
				if err != nil {
					errs[t] = err
					return
				}
				id := tr.begin("workload.measure", parent, reqID)
				outs[t], errs[t] = measureTrial(r, rv, wl, t)
				tr.end(id)
				if errs[t] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return outs, errors.Join(errs...)
}

// newWorkload builds the request's trial workload, faults applied.
func (rv *resolved) newWorkload() (workload.Workload, error) {
	return workload.ApplyFaults(rv.sc.New(rv.params), rv.params)
}

func measureTrial(r *workload.Runner, rv *resolved, w workload.Workload, t int) (trialOut, error) {
	sum, err := workload.Measure(r, w, workload.MeasureOpts{
		Trials:         1,
		WarmupMessages: rv.warmup,
		Batches:        rv.req.Batches,
		Seed:           workload.TrialSeed(rv.req.Seed, t),
	})
	if err != nil {
		return trialOut{}, err
	}
	return trialOut{sum: sum, counters: r.Counters()}, nil
}

// merge folds the trials in trial order into the response serve returns.
func (rp *replayer) merge(rv *resolved, outs []trialOut) (*serve.RunResponse, error) {
	merged := stats.NewSummary()
	trialMeans := &stats.Stream{}
	var counters sim.Counters
	for _, o := range outs {
		if err := merged.Merge(o.sum); err != nil {
			return nil, err
		}
		if o.sum.Count() > 0 {
			trialMeans.Add(o.sum.Mean())
		}
		counters.Add(o.counters)
	}
	if rv.trials >= 2 {
		merged.SetBatchCI(trialMeans)
	} else {
		merged.SetBatchCI(outs[0].sum.BatchCI())
	}
	ci95 := merged.CI95()
	if merged.N() < 2 {
		ci95 = 0
	}
	return &serve.RunResponse{
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
		PoolSize:         rp.poolSize,
		Counters:         counters,
	}, nil
}

// probeOut is one cold/warm trial probe.
type probeOut struct {
	mallocs uint64
	events  uint64
}

// probe times the runner layer apart from the request path: a fresh runner
// on the request's system, its first Measure of trial 0 (cold), and the same
// trial again on the now-warm runner, counting the warm call's mallocs.
// Nothing else may run while it counts.
func (rp *replayer) probe(rv *resolved, tr *tracer, parent, reqID int) (probeOut, error) {
	id := tr.begin("probe.runner", parent, reqID)
	var r *workload.Runner
	var err error
	if rv.alt != nil {
		r, err = rp.newTrialRunner(rv)
	} else {
		r, err = rp.newDefaultRunner()
	}
	tr.end(id)
	if err != nil {
		return probeOut{}, err
	}
	w, err := rv.newWorkload()
	if err != nil {
		return probeOut{}, err
	}
	id = tr.begin("probe.cold_trial", parent, reqID)
	_, err = measureTrial(r, rv, w, 0)
	tr.end(id)
	if err != nil {
		return probeOut{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id = tr.begin("probe.warm_trial", parent, reqID)
	out, err := measureTrial(r, rv, w, 0)
	tr.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return probeOut{}, err
	}
	return probeOut{mallocs: m1.Mallocs - m0.Mallocs, events: out.counters.Events}, nil
}
