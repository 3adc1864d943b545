// Command spamserve serves SPAM sweep requests over HTTP: a bounded pool of
// resettable simulators executes trials of named workload scenarios for many
// concurrent clients, aggregating latencies with constant-memory streaming
// statistics (mean, CI, log-histogram quantiles).
//
// Usage:
//
//	spamserve -addr :8080 -nodes 128 -seed 1998 -pool 8
//	spamserve -topo torus:16x16 -pool 8
//
// Fleet mode — one coordinator scattering over identically configured
// workers (same topology flags on every process, or the coordinator refuses
// to dispatch to them):
//
//	spamserve -addr :8081 &
//	spamserve -addr :8082 &
//	spamserve -addr :8080 -coordinator -workers http://localhost:8081,http://localhost:8082
//
// API:
//
//	POST /run        {"scenario":"mixed","trials":8,"seed":1,"params":{...}}
//	                 params may carry "topology":"fattree:4x3" to run the
//	                 sweep on a zoo family instead of the default system
//	POST /campaign   {"name":"paper"} or {"manifest":{...}} — run a whole
//	                 reproduction campaign, returning REPORT.md + SVG plots
//	POST /shard      fleet worker protocol: one trial range as exact
//	                 per-trial accumulator state
//	POST /cell       fleet worker protocol: one campaign grid cell
//	GET  /scenarios  registered workload scenarios
//	GET  /healthz    pool occupancy, admission and fleet counters, uptime,
//	                 build identity, and the configuration fingerprint
//	                 coordinators match against
//	GET  /metrics    Prometheus text exposition (disable with -metrics=false)
//	GET  /debug/pprof/  runtime profiles, only with -pprof
//
// Every response is deterministic for a given request: trial seeds derive
// from the request seed and per-trial shards merge in trial order, so the
// numbers do not depend on pool size, scheduling, fleet size, retries, or
// transport faults — or on whether telemetry is enabled (observability is
// strictly out of band). Saturated services answer 429 with Retry-After
// instead of queueing without bound, and shutdown drains in-flight requests
// for up to -drain before exiting.
//
// Logs are structured (log/slog) on stderr; every request line carries a
// correlation ID that coordinator→worker dispatches propagate, so one grep
// key follows a request across the fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	spamnet "repro"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/updown"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		nodes       = flag.Int("nodes", 128, "network size in switches (one processor each; ignored when -topo is set)")
		topoSpec    = flag.String("topo", "", `default-system topology spec, e.g. "torus:16x16", "fattree:4x3" (default: lattice:<nodes>)`)
		seed        = flag.Uint64("seed", 1998, "topology generation seed")
		root        = flag.String("root", "min-id", "spanning-tree root strategy: min-id | max-degree | center")
		routing     = flag.String("routing", "baseline", "default-system routing policy: baseline | misroute | duato (misroute with an unbounded budget)")
		misBudget   = flag.Int("misroute-budget", 0, "default-system per-worm deroute budget (-routing misroute only)")
		pool        = flag.Int("pool", 0, "simulator pool size (0 = GOMAXPROCS)")
		bufFlits    = flag.Int("inputbuf", 1, "input buffer size in flits")
		flits       = flag.Int("flits", 128, "message length in flits")
		trialCap    = flag.Int("max-trials", 64, "per-request trial clamp")
		msgCap      = flag.Int("max-messages", 20000, "per-trial message clamp")
		inflightCap = flag.Int("max-inflight", 0, "admitted-request bound before 429s (0 = 32×pool, negative = unlimited)")
		horizon     = flag.Duration("max-sim-time", time.Hour, "simulated-time horizon per trial")
		coordinator = flag.Bool("coordinator", false, "run as a scatter/gather coordinator over -workers")
		workers     = flag.String("workers", "", "comma-separated worker base URLs (requires -coordinator)")
		probeEvery  = flag.Duration("probe-interval", 250*time.Millisecond, "worker health probe cadence in coordinator mode")
		drain       = flag.Duration("drain", 10*time.Second, "shutdown grace period for draining in-flight requests")
		metricsOn   = flag.Bool("metrics", true, "enable telemetry and GET /metrics (Prometheus text)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logLevel    = flag.String("log-level", "info", "log level: debug | info | warn | error")
		logFormat   = flag.String("log-format", "text", "log format: text | json")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spamserve: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	var workerURLs []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workerURLs = append(workerURLs, w)
		}
	}
	switch {
	case *coordinator && len(workerURLs) == 0:
		fatal("-coordinator requires -workers")
	case !*coordinator && len(workerURLs) > 0:
		fatal("-workers requires -coordinator")
	}

	strategy, err := updown.ParseRootStrategy(*root)
	if err != nil {
		fatal("bad flag", "error", err.Error())
	}
	routingParams := workload.Params{Routing: *routing, MisrouteBudget: *misBudget}
	if err := workload.ValidateRoutingParams(routingParams); err != nil {
		fatal("bad flag", "error", err.Error())
	}
	policy, budget, _ := workload.RoutingPolicy(routingParams)
	params := spamnet.PaperParams()
	params.MessageFlits = *flits
	sysOpts := []spamnet.Option{
		spamnet.WithSeed(*seed),
		spamnet.WithRootStrategy(strategy),
		spamnet.WithRoutingPolicy(policy),
		spamnet.WithMisrouteBudget(budget),
		spamnet.WithInputBufferFlits(*bufFlits),
		spamnet.WithLatencyParams(params),
		spamnet.WithMaxSimTime(*horizon),
	}
	var sys *spamnet.System
	var err2 error
	if *topoSpec != "" {
		sys, err2 = spamnet.NewFromSpec(*topoSpec, sysOpts...)
	} else {
		sys, err2 = spamnet.NewLattice(*nodes, sysOpts...)
	}
	if err2 != nil {
		fatal("building system", "error", err2.Error())
	}
	var reg *telemetry.Registry
	if *metricsOn {
		reg = telemetry.NewRegistry()
	}
	svc, err := serve.New(serve.Config{
		System:      sys,
		PoolSize:    *pool,
		MaxTrials:   *trialCap,
		MaxMessages: *msgCap,
		MaxInflight: *inflightCap,
		Fleet: serve.FleetConfig{
			Workers:       workerURLs,
			ProbeInterval: *probeEvery,
		},
		Metrics: reg,
		Logger:  logger,
		Pprof:   *pprofOn,
	})
	if err != nil {
		fatal("startup failed", "error", err.Error())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Derive request contexts from the signal context: on SIGTERM every
		// in-flight /run cancels its queued trials, so shutdown is bounded
		// instead of waiting out the longest sweep.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	topoName := *topoSpec
	if topoName == "" {
		topoName = fmt.Sprintf("lattice:%d", *nodes)
	}
	role := "worker/standalone"
	if *coordinator {
		role = fmt.Sprintf("coordinator over %d workers", len(workerURLs))
	}
	logger.Info("spamserve listening",
		"addr", *addr,
		"topology", topoName,
		"switches", sys.Topology().NumSwitches,
		"seed", *seed,
		"root", *root,
		"pool", svc.PoolSize(),
		"role", role,
		"metrics", *metricsOn,
		"pprof", *pprofOn,
	)

	select {
	case <-ctx.Done():
		logger.Info("shutting down", "drain", drain.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown", "error", err.Error())
		}
		svc.Close()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal("server failed", "error", err.Error())
		}
	}
}

// buildLogger constructs the process logger: text or JSON slog on stderr at
// the requested level.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug | info | warn | error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (text | json)", format)
}
