package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// FleetConfig runs a Service as a scatter/gather coordinator: /run trial
// ranges and campaign grid cells are dispatched to HTTP workers instead of
// the local pool, with retries, health-gated worker selection, and local
// fallback. Because every worker resolves the same execution plan and ships
// exact accumulator state, the merged output is bit-identical to a
// single-node run — for any fleet size, retry schedule, or fault pattern.
type FleetConfig struct {
	// Workers are the base URLs of worker services ("http://host:port").
	// Empty disables fleet mode.
	Workers []string
	// Policy shapes the per-shard retry loop (zero value = resilience
	// defaults: 4 attempts, 25ms..1s backoff, 15s per-attempt deadline).
	Policy resilience.Policy
	// Transport carries the dispatch and probe HTTP traffic; nil selects
	// http.DefaultTransport. The chaos harness injects its fault
	// transport here.
	Transport http.RoundTripper
	// ProbeInterval is the /healthz probe cadence per worker (0 = 250ms).
	// Each probe also runs under this as its timeout.
	ProbeInterval time.Duration
}

// errNoWorkers reports a dispatch attempt with every worker unhealthy.
var errNoWorkers = errors.New("serve: no healthy fleet workers")

// shardsPerWorker shapes the scatter: the trial range splits into about
// this many spans per worker, so a slow worker strands at most 1/(2N) of
// the work instead of 1/N.
const shardsPerWorker = 2

// maxFleetRespBytes bounds worker response bodies read by the coordinator.
const maxFleetRespBytes = 64 << 20

// fleetWorker is one probed dispatch target.
type fleetWorker struct {
	url     string
	healthy atomic.Bool
	// flaps counts health transitions (either direction); nil-safe, wired
	// when the coordinator has a metrics registry.
	flaps *telemetry.Counter
}

// fleet is the coordinator state hanging off a Service.
type fleet struct {
	s       *Service
	cfg     FleetConfig
	client  *http.Client
	workers []*fleetWorker
	rr      atomic.Uint64 // round-robin dispatch cursor

	remoteShards   atomic.Int64 // trial spans gathered from workers
	remoteCells    atomic.Int64 // campaign cells gathered from workers
	localFallbacks atomic.Int64 // spans/cells degraded to local execution
	retries        atomic.Int64 // dispatch attempts after the first

	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newFleet(s *Service, cfg FleetConfig) *fleet {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	tr := cfg.Transport
	if tr == nil {
		tr = http.DefaultTransport
	}
	f := &fleet{
		s:   s,
		cfg: cfg,
		// No client-level timeout: every dispatch runs under a
		// per-attempt context deadline from the resilience policy.
		client: &http.Client{Transport: tr},
		stopCh: make(chan struct{}),
	}
	// Observability wiring — all nil-safe when the service runs without a
	// registry. The retry loop shares the service-wide resilience counters;
	// health flaps get one counter per worker.
	f.cfg.Policy.Metrics = s.metrics.resilience
	reg := s.metrics.reg
	for _, u := range cfg.Workers {
		f.workers = append(f.workers, &fleetWorker{
			url:   u,
			flaps: reg.NewCounter("spamserve_fleet_health_flaps_total", `worker="`+u+`"`, "worker health transitions observed by probes"),
		})
	}
	reg.NewGaugeFunc("spamserve_fleet_workers", "", "configured fleet workers", func() int64 {
		return int64(len(f.workers))
	})
	reg.NewGaugeFunc("spamserve_fleet_healthy", "", "workers currently passing probes", func() int64 {
		return int64(f.healthyCount())
	})
	reg.NewCounterFunc("spamserve_fleet_remote_shards_total", "", "trial spans gathered from workers", f.remoteShards.Load)
	reg.NewCounterFunc("spamserve_fleet_remote_cells_total", "", "campaign cells gathered from workers", f.remoteCells.Load)
	reg.NewCounterFunc("spamserve_fleet_local_fallbacks_total", "", "spans/cells degraded to local execution", f.localFallbacks.Load)
	reg.NewCounterFunc("spamserve_fleet_retries_total", "", "dispatch attempts after the first", f.retries.Load)
	return f
}

// setHealth records a probe verdict, counting and logging the transition
// when it differs from the previous state.
func (f *fleet) setHealth(w *fleetWorker, ok bool) {
	if prev := w.healthy.Swap(ok); prev == ok {
		return
	}
	w.flaps.Inc()
	if lg := f.s.logger; lg != nil {
		if ok {
			lg.Info("fleet worker healthy", "worker", w.url)
		} else {
			lg.Warn("fleet worker unhealthy", "worker", w.url)
		}
	}
}

// start launches one probe loop per worker. Workers begin unhealthy and
// only receive work after a probe proves they are alive AND their
// configuration fingerprint matches ours — a mismatched worker would
// resolve different clamps and silently change results.
func (f *fleet) start() {
	for _, w := range f.workers {
		f.wg.Add(1)
		go func(w *fleetWorker) {
			defer f.wg.Done()
			f.probe(w)
			t := time.NewTicker(f.cfg.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-f.stopCh:
					return
				case <-t.C:
					f.probe(w)
				}
			}
		}(w)
	}
}

func (f *fleet) stop() {
	close(f.stopCh)
	f.wg.Wait()
	f.client.CloseIdleConnections()
}

// probe flips the worker's health bit from one /healthz round trip.
func (f *fleet) probe(w *fleetWorker) {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		f.setHealth(w, false)
		return
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.setHealth(w, false)
		return
	}
	defer resp.Body.Close()
	var h Health
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(data, &h) != nil {
		f.setHealth(w, false)
		return
	}
	f.setHealth(w, h.OK && h.Fingerprint == f.s.fingerprint)
}

// healthyCount reports how many workers currently pass probes.
func (f *fleet) healthyCount() int {
	n := 0
	for _, w := range f.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// pick returns a healthy worker, rotating the round-robin cursor; skip
// shifts the start so consecutive retry attempts try different workers.
// Returns nil when every worker is unhealthy.
func (f *fleet) pick(skip uint64) *fleetWorker {
	n := uint64(len(f.workers))
	start := f.rr.Add(1) + skip
	for i := uint64(0); i < n; i++ {
		if w := f.workers[(start+i)%n]; w.healthy.Load() {
			return w
		}
	}
	return nil
}

// postJSON round-trips one dispatch. Worker-side client errors (4xx other
// than 429) are Permanent: the coordinator already resolved this request
// successfully, so a worker rejecting it means mismatched configuration,
// not transient failure.
func (f *fleet) postJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return resilience.Permanent(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the correlation ID: the worker adopts it, so both sides'
	// logs for this dispatch share one key.
	if id := telemetry.RequestID(ctx); id != "" {
		req.Header.Set(telemetry.RequestIDHeader, id)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFleetRespBytes))
	if err != nil {
		return fmt.Errorf("%s: reading response: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := string(data)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		err := fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, msg)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return resilience.Permanent(err)
		}
		return err
	}
	// A decode failure is retryable: a truncated or mangled body is a
	// transport fault, and the next attempt re-fetches the same
	// deterministic shard.
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: decoding response: %w", url, err)
	}
	return nil
}

// scatterRun splits [0, rv.trials) into contiguous spans and dispatches
// them concurrently, gathering one shard per trial. Shard content is a
// pure function of (request, trial index), so which worker computes a span
// — or whether it degrades to local execution — cannot change the merged
// result.
func (f *fleet) scatterRun(ctx context.Context, rv *resolvedRun) ([]shard, error) {
	shards := make([]shard, rv.trials)
	chunk := (rv.trials + shardsPerWorker*len(f.workers) - 1) / (shardsPerWorker * len(f.workers))
	if chunk < 1 {
		chunk = 1
	}
	type span struct{ lo, hi int }
	var spans []span
	for lo := 0; lo < rv.trials; lo += chunk {
		hi := lo + chunk
		if hi > rv.trials {
			hi = rv.trials
		}
		spans = append(spans, span{lo, hi})
	}
	var wg sync.WaitGroup
	errs := make([]error, len(spans))
	for i, sp := range spans {
		wg.Add(1)
		go func(i int, sp span) {
			defer wg.Done()
			errs[i] = f.dispatchSpan(ctx, rv, shards, sp.lo, sp.hi)
		}(i, sp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// dispatchSpan fills shards[lo:hi] — from a worker if any attempt lands,
// else by running the trials on the local pool. The jitter key is the span
// itself, so the retry schedule replays identically for a given seed.
func (f *fleet) dispatchSpan(ctx context.Context, rv *resolvedRun, shards []shard, lo, hi int) error {
	// The span's correlation ID extends the request's: a worker serving
	// trials [lo,hi) logs "parent/shard-lo-hi".
	ctx = telemetry.WithRequestID(ctx, telemetry.ChildID(ctx, fmt.Sprintf("shard-%d-%d", lo, hi)))
	p := f.cfg.Policy
	p.Seed ^= rv.req.Seed
	key := uint64(lo)<<32 | uint64(hi)
	err := resilience.Do(ctx, p, key, func(actx context.Context, attempt int) error {
		if attempt > 0 {
			f.retries.Add(1)
		}
		w := f.pick(uint64(attempt))
		if w == nil {
			return errNoWorkers
		}
		var sr ShardResponse
		if err := f.postJSON(actx, w.url+"/shard", ShardRequest{Run: rv.req, TrialLo: lo, TrialHi: hi}, &sr); err != nil {
			return err
		}
		if len(sr.Trials) != hi-lo {
			return fmt.Errorf("shard [%d,%d): worker returned %d trials", lo, hi, len(sr.Trials))
		}
		if len(sr.Counters) != 0 && len(sr.Counters) != len(sr.Trials) {
			return fmt.Errorf("shard [%d,%d): worker returned %d counter snapshots for %d trials", lo, hi, len(sr.Counters), len(sr.Trials))
		}
		for i, wire := range sr.Trials {
			sum, err := stats.SummaryFromWire(wire)
			if err != nil {
				return err
			}
			sh := shard{sum: sum}
			if len(sr.Counters) > 0 {
				sh.counters = sr.Counters[i]
			}
			shards[lo+i] = sh
		}
		f.remoteShards.Add(1)
		return nil
	})
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	// Graceful degradation: the fleet is a throughput optimization, never
	// a correctness dependency. Trials lo..hi on the local pool are
	// bit-identical to what the worker would have returned.
	f.localFallbacks.Add(1)
	if lg := f.s.logger; lg != nil {
		lg.Warn("fleet span falling back to local pool",
			"id", telemetry.RequestID(ctx), "trial_lo", lo, "trial_hi", hi, "error", err.Error())
	}
	sub, lerr := f.s.runTrials(ctx, rv, lo, hi)
	if lerr != nil {
		return lerr
	}
	copy(shards[lo:hi], sub)
	return nil
}

// runCell is the campaign engine's CellRunner in coordinator mode: one grid
// cell dispatched with the same retry/fallback discipline as trial spans.
// The engine slots and checkpoints the result under its own locally derived
// id, so the returned cell only has to be value-identical to a local run —
// which the wire guarantees (exact float64 JSON round trips).
func (f *fleet) runCell(ctx context.Context, g campaign.Grid, cell campaign.Cell) (*campaign.CellResult, error) {
	p := f.cfg.Policy
	p.Seed ^= cell.Seed
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%s", cell.Grid, cell.Topology, cell.Scenario, cell.Fault)
	key := h.Sum64()
	ctx = telemetry.WithRequestID(ctx, telemetry.ChildID(ctx, fmt.Sprintf("cell-%016x", key^cell.Seed)))
	var out campaign.CellResult
	err := resilience.Do(ctx, p, key, func(actx context.Context, attempt int) error {
		if attempt > 0 {
			f.retries.Add(1)
		}
		w := f.pick(uint64(attempt))
		if w == nil {
			return errNoWorkers
		}
		out = campaign.CellResult{}
		if err := f.postJSON(actx, w.url+"/cell", CellRequest{Grid: g, Cell: cell}, &out); err != nil {
			return err
		}
		f.remoteCells.Add(1)
		return nil
	})
	if err == nil {
		return &out, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	f.localFallbacks.Add(1)
	if lg := f.s.logger; lg != nil {
		lg.Warn("fleet cell falling back to local execution",
			"id", telemetry.RequestID(ctx), "cell", cell.String(), "error", err.Error())
	}
	return campaign.RunSingleCell(ctx, g, cell, campaign.Options{
		Sim:         f.s.simCfg,
		MaxTrials:   f.s.cfg.MaxTrials,
		MaxMessages: f.s.cfg.MaxMessages,
	})
}
