package serve

import (
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// endpoints is the fixed instrumentation order of the HTTP surface.
// Registration iterates this slice (never a map) so the /metrics exposition
// is deterministic.
var endpoints = []string{"run", "campaign", "shard", "cell", "scenarios", "healthz", "metrics"}

// serveMetrics bundles every metric the service exports. The zero value
// (all nil fields, enabled false) is the telemetry-off form: every observe
// method no-ops, which is what keeps the on/off switch out of the result
// path entirely — instrumented code runs unconditionally and the off state
// costs one branch. Built by newServeMetrics from a telemetry.Registry
// (nil registry → zero form).
type serveMetrics struct {
	enabled bool
	reg     *telemetry.Registry

	// Per-endpoint HTTP counters and latency summaries.
	requests map[string]*telemetry.Counter // every completed request
	errors   map[string]*telemetry.Counter // responses with status >= 400 (except 429)
	rejected map[string]*telemetry.Counter // 429 responses (admission control)
	latency  map[string]*telemetry.Histogram

	// Pool and admission gauges. The two high-water gauges are
	// max-since-last-scrape with reset-on-read semantics: each /metrics
	// scrape reports the peak observed during its own interval, where the
	// forever-max form (still on /healthz as all-time values) goes flat
	// after the first saturation event.
	poolHighWater     *telemetry.MaxGauge
	inflightHighWater *telemetry.MaxGauge

	// Per-trial wall clock (seconds), observed in the pool worker loop —
	// out of band: simulated time never sees it.
	trialSeconds *telemetry.Histogram

	// Engine counter aggregates, summed over every trial this service ran.
	simEvents      *telemetry.Counter
	simSubmitted   *telemetry.Counter
	simCompleted   *telemetry.Counter
	simPayloadHops *telemetry.Counter
	simBubbleHops  *telemetry.Counter
	simHeaderWait  *telemetry.Counter
	simAborted     *telemetry.Counter
	simDropped     *telemetry.Counter

	// Resilience counters, shared with the fleet retry loop.
	resilience resilience.Metrics

	// Campaign progress counters, wired into every /campaign run.
	campaign campaign.Metrics
}

// newServeMetrics registers the service's metric families on reg (nil reg
// returns the zero, telemetry-off form). The gauge functions read the
// service's existing atomic counters, so /healthz and /metrics can never
// disagree about them.
func newServeMetrics(reg *telemetry.Registry, s *Service) *serveMetrics {
	m := &serveMetrics{}
	if reg == nil {
		return m
	}
	m.enabled = true
	m.reg = reg
	m.requests = map[string]*telemetry.Counter{}
	m.errors = map[string]*telemetry.Counter{}
	m.rejected = map[string]*telemetry.Counter{}
	m.latency = map[string]*telemetry.Histogram{}
	for _, ep := range endpoints {
		lbl := `endpoint="` + ep + `"`
		m.requests[ep] = reg.NewCounter("spamserve_requests_total", lbl, "completed HTTP requests by endpoint")
		m.errors[ep] = reg.NewCounter("spamserve_request_errors_total", lbl, "HTTP responses with status >= 400 (excluding 429) by endpoint")
		m.rejected[ep] = reg.NewCounter("spamserve_requests_rejected_total", lbl, "HTTP 429 responses (admission control) by endpoint")
		m.latency[ep] = reg.NewHistogram("spamserve_request_seconds", lbl, "request wall-clock latency in seconds by endpoint")
	}
	reg.NewGaugeFunc("spamserve_pool_size", "", "simulator pool bound", func() int64 {
		return int64(s.cfg.PoolSize)
	})
	reg.NewGaugeFunc("spamserve_pool_busy", "", "workers currently running a trial", s.busy.Load)
	reg.NewGaugeFunc("spamserve_inflight_requests", "", "requests currently admitted", s.inflight.Load)
	reg.NewGaugeFunc("spamserve_max_inflight", "", "admission bound behind 429s", func() int64 {
		return s.maxInflight
	})
	m.poolHighWater = reg.NewMaxGauge("spamserve_pool_busy_high_water", "",
		"max concurrent busy workers since last scrape (resets on read)")
	m.inflightHighWater = reg.NewMaxGauge("spamserve_inflight_high_water", "",
		"max admitted requests since last scrape (resets on read)")
	reg.NewCounterFunc("spamserve_trials_total", "", "trials executed on the pool", s.trialsRun.Load)
	reg.NewCounterFunc("spamserve_trials_skipped_total", "", "trials skipped by cancellation", s.trialsSkip.Load)
	reg.NewCounterFunc("spamserve_admission_rejections_total", "", "requests refused by admission control", s.rejected.Load)
	m.trialSeconds = reg.NewHistogram("spamserve_trial_seconds", "", "per-trial wall clock in seconds")

	m.simEvents = reg.NewCounter("spamserve_sim_events_total", "", "engine events executed across all trials")
	m.simSubmitted = reg.NewCounter("spamserve_sim_worms_submitted_total", "", "worms submitted across all trials")
	m.simCompleted = reg.NewCounter("spamserve_sim_worms_completed_total", "", "worms completed across all trials")
	m.simPayloadHops = reg.NewCounter("spamserve_sim_payload_flit_hops_total", "", "payload flit hops across all trials")
	m.simBubbleHops = reg.NewCounter("spamserve_sim_bubble_flit_hops_total", "", "bubble flit hops across all trials")
	m.simHeaderWait = reg.NewCounter("spamserve_sim_header_acquire_wait_total", "", "header acquisition attempts that had to wait")
	m.simAborted = reg.NewCounter("spamserve_sim_worms_aborted_total", "", "worms aborted by fault injection")
	m.simDropped = reg.NewCounter("spamserve_sim_flits_dropped_total", "", "flits dropped by fault drains")

	m.resilience = resilience.Metrics{
		Attempts:          reg.NewCounter("spamserve_resilience_attempts_total", "", "dispatch attempts entered by the retry loop"),
		Retries:           reg.NewCounter("spamserve_resilience_retries_total", "", "dispatch attempts after the first"),
		BackoffSleeps:     reg.NewCounter("spamserve_resilience_backoff_sleeps_total", "", "backoff sleeps between attempts"),
		BackoffSeconds:    reg.NewHistogram("spamserve_resilience_backoff_seconds", "", "backoff sleep durations in seconds"),
		PermanentFailures: reg.NewCounter("spamserve_resilience_permanent_failures_total", "", "attempts failed with a permanent (non-retryable) error"),
		Exhausted:         reg.NewCounter("spamserve_resilience_exhausted_total", "", "retry loops that exhausted every attempt"),
	}

	m.campaign = campaign.Metrics{
		CellsStarted:  reg.NewCounter("spamserve_campaign_cells_started_total", "", "grid cells that entered execution"),
		CellsCached:   reg.NewCounter("spamserve_campaign_cells_cached_total", "", "grid cells loaded from checkpoints"),
		CellsComputed: reg.NewCounter("spamserve_campaign_cells_computed_total", "", "grid cells computed to completion"),
		CellSeconds:   reg.NewHistogram("spamserve_campaign_cell_seconds", "", "per-cell wall clock in seconds"),
	}
	return m
}

// observeTrialCounters folds one trial's engine counters into the
// aggregates. Nil-safe on the zero form; never allocates.
func (m *serveMetrics) observeTrialCounters(c sim.Counters) {
	if !m.enabled {
		return
	}
	m.simEvents.Add(int64(c.Events))
	m.simSubmitted.Add(int64(c.WormsSubmitted))
	m.simCompleted.Add(int64(c.WormsCompleted))
	m.simPayloadHops.Add(int64(c.PayloadFlitHops))
	m.simBubbleHops.Add(int64(c.BubbleFlitHops))
	m.simHeaderWait.Add(int64(c.HeaderAcquireWait))
	m.simAborted.Add(int64(c.WormsAborted))
	m.simDropped.Add(int64(c.FlitsDropped))
}

// statusRecorder captures the response status for the endpoint counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// instrument wraps one endpoint handler with correlation-ID propagation,
// per-endpoint counters/latency, and a structured request log line. With
// telemetry and logging both off the handler is returned unwrapped — the
// observability layer costs literally nothing when disabled.
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if !s.metrics.enabled && s.logger == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		// Adopt the caller's correlation ID (a coordinator's shard/cell
		// dispatch stamps its own) or mint one; echo it so clients can
		// grep both sides' logs with one key.
		id := r.Header.Get(telemetry.RequestIDHeader)
		if id == "" {
			id = telemetry.NextRequestID()
		}
		w.Header().Set(telemetry.RequestIDHeader, id)
		r = r.WithContext(telemetry.WithRequestID(r.Context(), id))
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		if m := s.metrics; m.enabled {
			m.requests[endpoint].Inc()
			switch {
			case rec.status == http.StatusTooManyRequests:
				m.rejected[endpoint].Inc()
			case rec.status >= 400:
				m.errors[endpoint].Inc()
			}
			m.latency[endpoint].Observe(elapsed.Seconds())
		}
		if s.logger != nil {
			s.logger.Info("request",
				"id", id,
				"endpoint", endpoint,
				"method", r.Method,
				"status", rec.status,
				"duration_ms", float64(elapsed.Microseconds())/1000.0,
			)
		}
	}
}

// handleMetrics serves GET /metrics as Prometheus text exposition. 404
// when telemetry is off: a scrape target that cannot produce data should
// say so loudly rather than serve an empty page.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	if !s.metrics.enabled {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "telemetry disabled (start the service with a metrics registry)"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}

// buildInfo is the build identity /healthz reports so a fleet fingerprint
// mismatch can be diagnosed from the probe payload alone (two binaries at
// different revisions are the usual cause).
type buildInfo struct {
	Version     string
	GoVersion   string
	VCSRevision string
	VCSModified bool
}

var readBuildInfo = sync.OnceValue(func() buildInfo {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return buildInfo{}
	}
	out := buildInfo{Version: bi.Main.Version, GoVersion: bi.GoVersion}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.VCSRevision = s.Value
		case "vcs.modified":
			out.VCSModified = s.Value == "true"
		}
	}
	return out
})
